"""Golden construction nets and twists: every construction path against stored values.

``tests/data/construction_nets.json`` holds the nets and twist vectors these
cases produced before the constructions shared one side spec and one
assembler.  Assembly order and the Bernstein product only move round-off,
so nets must agree to 1e-14 times their diagonal and twists to 1e-12
relative.  Running this file as a script rewrites the data from the
current code; do that only to add a case, never to absorb a difference.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from smoothpatch.bezier import BezierPatch, bounding_diagonal
from smoothpatch.construct import (
    LinkCoefficients,
    NinePatchRing,
    build_fillet,
    complete_fourth_patch,
    fill_hole,
    fill_hole_deg6,
    fourth_patch_twist_check,
    hole_twist_checks,
    solve_hole_params,
)

from helpers import constructive_corner, kappa_corner, random_ring, random_strips, split_corner

GOLDEN = Path(__file__).parent / "data" / "construction_nets.json"


def _fourth_deg5_split():
    _, p1, p2, p4, _ = split_corner(np.random.default_rng(1001))
    return {"nets": [complete_fourth_patch(p1, p2, p4)]}


def _fourth_deg5_free_ordinates():
    r1, r2, r4, lam12, lam14 = constructive_corner(np.random.default_rng(1002))
    return {"nets": [complete_fourth_patch(
        r1, r2, r4, alpha23=1.2 * lam14, alpha43=0.9 * lam12, lambda23_1=1.1 * lam14,
        kappa43_1=-0.05, beta2_23=0.1)]}


def _fourth_deg4():
    r1, r2, r4, lam12, lam14 = constructive_corner(np.random.default_rng(1003))
    return {"nets": [complete_fourth_patch(
        r1, r2, r4, degree=4, lambda23_1=0.8 * lam14, lambda43_1=1.4 * lam12)]}


def _fourth_kappa_corner():
    r1, r2, r4, _, _ = kappa_corner(np.random.default_rng(1004), kap12_0=0.35, kap14_0=-0.25)
    return {"nets": [complete_fourth_patch(r1, r2, r4)]}


def _ring(seed):
    return NinePatchRing.from_patches(random_ring(np.random.default_rng(seed))[0])


def _hole_deg5_default():
    return {"nets": [fill_hole(_ring(1005))]}


def _hole_deg5_given_alphas():
    ring = _ring(1006)
    return {"nets": [fill_hole(ring, solve_hole_params(ring, (1.1, 0.9, 1.2, 0.8)))]}


def _hole_deg6():
    return {"nets": [fill_hole_deg6(_ring(1007))]}


def _fillet(seed, n_rows):
    strip_a, strip_b = random_strips(np.random.default_rng(seed), n_rows)
    return {"nets": build_fillet(strip_a, strip_b, bridge_lambdas=(1.3, 0.8))}


def _fourth_twists():
    _, r2, r4, lam12, lam14 = constructive_corner(np.random.default_rng(1010))
    out = {}
    for delta in (0.0, 0.01):
        alpha23, alpha43 = 1.2 * lam14, 0.9 * lam12
        c23 = LinkCoefficients(lam14, alpha23, lam14, 0.0,
                               2 * (alpha43 - lam12) / (3 * lam12) + delta, 0.0, 0.0)
        c43 = LinkCoefficients(lam12, alpha43, lam12, 0.0,
                               2 * (alpha23 - lam14) / (3 * lam14), 0.0, 0.0)
        t = fourth_patch_twist_check(r2, r4, c23, c43)
        out[f"delta={delta}"] = [t.q23, t.q43]
    return {"twists": out}


def _hole_twists():
    ring = _ring(1011)
    out = {}
    for label, params in (("default", None),
                          ("alphas", solve_hole_params(ring, (1.1, 0.9, 1.2, 0.8)))):
        for corner, t in hole_twist_checks(ring, params).items():
            out[f"{label}/{corner}"] = [t.q23, t.q43]
    return {"twists": out}


CASES = {
    "fourth_deg5_split": _fourth_deg5_split,
    "fourth_deg5_free_ordinates": _fourth_deg5_free_ordinates,
    "fourth_deg4": _fourth_deg4,
    "fourth_kappa_corner": _fourth_kappa_corner,
    "hole_deg5_default": _hole_deg5_default,
    "hole_deg5_given_alphas": _hole_deg5_given_alphas,
    "hole_deg6": _hole_deg6,
    "fillet_n3": lambda: _fillet(1008, 3),
    "fillet_n4_three_sided": lambda: _fillet(1009, 4),
    "fourth_patch_twist_check": _fourth_twists,
    "hole_twist_checks": _hole_twists,
}


def _as_data(result):
    data = {}
    if "nets" in result:
        data["nets"] = [p.net.tolist() for p in result["nets"]]
    if "twists" in result:
        data["twists"] = {k: [np.asarray(q).tolist() for q in pair]
                          for k, pair in result["twists"].items()}
    return data


@pytest.mark.parametrize("case", sorted(CASES))
def test_construction_matches_golden(case):
    want = json.loads(GOLDEN.read_text())[case]
    got = _as_data(CASES[case]())
    assert got.keys() == want.keys()
    for g, w in zip(got.get("nets", []), want.get("nets", []), strict=True):
        g, w = np.array(g), np.array(w)
        assert g.shape == w.shape
        scale = bounding_diagonal(BezierPatch.from_net(w))
        assert np.abs(g - w).max() <= 1e-14 * scale
    assert got.get("twists", {}).keys() == want.get("twists", {}).keys()
    for key, pair in want.get("twists", {}).items():
        for g, w in zip(got["twists"][key], pair, strict=True):
            g, w = np.array(g), np.array(w)
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w), key


if __name__ == "__main__":
    # PYTHONPATH=src:tests python tests/test_construction_golden.py
    GOLDEN.write_text(json.dumps({k: _as_data(f()) for k, f in sorted(CASES.items())}) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
