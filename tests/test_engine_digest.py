import engine_digest


def test_engine_digest(cold_caches):
    # Every answer of the grid in engine_digest.py, rebuilt from cold
    # caches, matches the committed digest embedding by embedding; a moved
    # answer names its embedding
    golden = engine_digest.load()
    assert len(golden) == 150
    got = engine_digest.digests()
    assert got.keys() == golden.keys()
    assert [key for key in got if got[key] != golden[key]] == []


def test_the_digest_grid():
    # 150 embeddings of 36 sheaves: 5,400 results, 1,319 of which raise
    grid = engine_digest.sheaves()
    assert len(grid) == len(set(grid)) == 36
    lines = [engine_digest.result_line(data, sheaf)
             for data in engine_digest.embeddings() for sheaf in grid]
    assert len(lines) == 5400
    assert sum("\tValueError: " in line for line in lines) == 1319
