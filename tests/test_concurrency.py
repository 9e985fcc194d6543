import sys
from concurrent.futures import ThreadPoolExecutor

from verkit import catalog
from verkit.grring import fold_projectives, fuse_simples
from verkit.tilting import tilting_char


def test_concurrent_tilting_char_fills():
    # Idempotent memo fills: hammer the same cold keys from many threads.
    import verkit.tilting as t

    t._weyl_row.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda m: tilting_char(5, m), list(range(60)) * 4))
    for m in range(60):
        expected = tilting_char(5, m)
        assert all(results[k] == expected for k in range(m, 240, 60))


def test_concurrent_fusion_reads():
    pairs = [(a, b) for a in range(18) for b in range(18)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda ab: fuse_simples(3, 3, *ab), pairs))
    for (a, b), got in zip(pairs, results):
        assert got == fuse_simples(3, 3, a, b)


def test_concurrent_first_use_of_category_context():
    # Many threads fold on a cold context; every lazy fill must agree.
    pairs = [(a, b) for a in range(18) for b in range(18)]
    catalog.category.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            folds = pool.map(lambda ab: fold_projectives(3, 3, fuse_simples(3, 3, *ab)), pairs)
            results = list(folds)
    finally:
        sys.setswitchinterval(interval)
        catalog.category.cache_clear()
    for (a, b), got in zip(pairs, results):
        assert got == fold_projectives(3, 3, fuse_simples(3, 3, a, b))
