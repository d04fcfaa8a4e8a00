"""The fingerprint set holds: every solve of ``tests/fingerprints.py`` keeps
its iteration count and status, and its final iterates either bit for bit
or within 1e-12 of the stored ones."""

import numpy as np

import fingerprints

#: the largest move of a final iterate entry taken as rounding level
MAX_DELTA = 1e-12


def test_fingerprints_hold():
    want = fingerprints.json.loads(fingerprints.JSON_PATH.read_text())
    stored = np.load(fingerprints.NPZ_PATH)
    got = fingerprints.reports()
    assert sorted(got) == sorted(want)
    moved = {}
    for name, rep in got.items():
        fp, w = fingerprints.fingerprint(rep), want[name]
        assert (fp["iters"], fp["status"]) == (w["iters"], w["status"]), name
        if fp != w:
            moved[name] = max(
                float(np.max(np.abs(rep.x_final - stored[f"{name}/x"]))),
                float(np.max(np.abs(rep.y_final - stored[f"{name}/y"]))))
    if moved:
        worst = max(moved, key=moved.get)
        print(f"{len(moved)} of {len(got)} solves moved; the largest "
              f"max |delta| is {moved[worst]:.3g}, in {worst}")
    else:
        print(f"all {len(got)} solves bitwise equal to the stored set")
    assert all(d <= MAX_DELTA for d in moved.values()), moved
