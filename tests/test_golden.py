"""The current code reproduces the stored golden corpus.

Floats must agree to 1e-12; everything discrete (cases, branches, methods,
iteration counts, fallbacks, record fields, skip flags) must agree exactly.
The generator and solve_lp entries are compared exactly, floats included:
the generated payoffs are vertices of a feasibility LP, and a bit-identical
LP kernel must return them, and every LP answer, bit for bit.  So are the
segment minima, the adjustments, the DFM runs and the verify entries: they
reproduce bit for bit with one BLAS thread, the setting of tests/conftest.py,
so a change meant to keep their arithmetic must keep their bits.

One discrete field is decided by a float comparison: ts_solve reports the
stationary profile as best when sp.f <= ts_f.  Where the two values lie
within 1e-12 of each other, both profiles are equally good to the corpus
tolerance and round-off decides the pick.  A pick that differs from the
corpus is accepted only there, and then best.f is compared in its place;
both candidate profiles are still compared on their own.
"""

import json
import math

from tests.golden_corpus import PATH, build_corpus

FLOAT_TOL = 1e-12


def mismatches(got, want, path="", out=None, tol=FLOAT_TOL):
    out = [] if out is None else out
    if isinstance(want, float) and isinstance(got, float):
        same = got == want or (math.isnan(got) and math.isnan(want))
        if not same and not abs(got - want) <= tol:
            out.append(f"{path}: {got!r} != {want!r}")
    elif isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            out.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
        for k in want.keys() & got.keys():
            mismatches(got[k], want[k], f"{path}.{k}", out, tol)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            out.append(f"{path}: length {len(got)} != {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            mismatches(g, w, f"{path}[{i}]", out, tol)
    elif type(got) is not type(want) or got != want:
        out.append(f"{path}: {got!r} != {want!r}")
    return out


def set_aside_tied_picks(got, want):
    """Reduce ts_solve's best to its value where a round-off tie flipped the pick."""
    for g, w in zip(got["ts_solve"], want["ts_solve"]):
        tied = "best" in w and abs(w["stationary_f"] - w["ts_f"]) <= FLOAT_TOL
        if tied and "best" in g and g["best"]["method"] != w["best"]["method"]:
            g["best"] = g["best"]["f"]
            w["best"] = w["best"]["f"]


def test_corpus_is_reproduced():
    with open(PATH) as fh:
        want = json.load(fh)
    got = json.loads(json.dumps(build_corpus()))
    set_aside_tied_picks(got, want)
    bad = []
    for key in ("generate_tight", "solve_lp", "segment_min_f", "adjust", "dfm_solve",
                "verify_tight"):
        mismatches(got.pop(key), want.pop(key), f".{key}", bad, tol=0.0)
    bad = mismatches(got, want, out=bad)
    assert not bad, f"{len(bad)} mismatches, first: " + "; ".join(bad[:10])
