"""Workload items and output oracles for the loopcomm benchmark.

Standard library only, and independent of the package under test: every
expected output here is either recorded or computed by a separate oracle,
never by running loopcomm in another mode.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

# sha256 of `loopcomm report --all --format structured` stdout, recorded at the
# commit that introduced the benchmark; the structured report is meant to stay
# byte-identical unless a change says otherwise.
DESK_DIGEST = "7b161385d3507c5b3e87f54f386bc14ebac06696d02b6e8fff799b3945ab8e9d"
DESK_ROWS = 79
DESK_CRITERIA = {"Steenrod": 53, "RecordedExternal": 13, "PartialProjectivePlane": 7, "Rational": 6}
DESK_EXCEPTION = "AIII(1,3)"
NONCOMMUTATIVE = "is not homotopy commutative"


@dataclass(frozen=True)
class Item:
    """One fresh `loopcomm` process: its arguments, input files and output check."""

    name: str
    argv: tuple
    verify: Callable[[int, str], Optional[str]]  # (exit code, stdout) -> error or None
    files: dict = field(default_factory=dict)  # file name -> text, written to the item's cwd


# ---------------------------------------------------------------------------
# desk_report


def verify_desk_report(code: int, out: str) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    try:
        rows = json.loads(out)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable report: {exc}"
    if len(rows) != DESK_ROWS:
        return f"{len(rows)} rows, expected {DESK_ROWS}"
    open_rows = [r["space"] for r in rows if NONCOMMUTATIVE not in r["conclusion"]]
    if open_rows != [DESK_EXCEPTION]:
        return f"rows without a conclusion: {open_rows}"
    flagged = [r["space"] for r in rows if r["exception"]]
    if flagged != [DESK_EXCEPTION]:
        return f"exception rows: {flagged}"
    counts: dict = {}
    for r in rows:
        counts[r["criterion"]] = counts.get(r["criterion"], 0) + 1
    if counts != DESK_CRITERIA:
        return f"criterion counts {counts}"
    if digest != DESK_DIGEST:
        return f"structured report digest {digest}"
    return None


def desk_items(seed: int) -> list:
    del seed  # one fixed command: the paper's table
    argv = ("report", "--all", "--format", "structured")
    return [Item("report--all", argv, verify_desk_report)]


# ---------------------------------------------------------------------------
# engine_ladder
#
# Run by hand (`--workload engine_ladder`), not among BENCHMARK.json's
# workloads: with three workloads the benchmark's time budget allows runs of
# 40 s, three or four samples of each slow item, which left spreads between
# runs up to 0.19 of the median; two workloads allow 55 s runs.  Its layer,
# the engine, is measured on desk_report as well.

# (family, parameters, expected criterion, expected witness entries).  Each rung
# sits past the desk ranges and took 0.4-2.5 s at the commit that introduced the
# benchmark; BASELINE.json records the next rungs, which take 13 s to >10 min.
LADDER = (
    ("AI", (14,), "Steenrod", {"operation": "Sq^4", "x": "v14"}),
    ("AI", (16,), "Steenrod", {"operation": "Sq^2", "x": "v16"}),
    ("BDI", (14, 14), "Steenrod", {"operation": "Sq^4", "x": "w14", "lifted-from": "BSO(14)"}),
    ("BDI", (16, 16), "Steenrod", {"operation": "Sq^2", "x": "w16", "lifted-from": "BSO(16)"}),
    ("CII", (5, 5), "Steenrod", {"operation": "P^1 (p=5)", "x": "q5", "lifted-from": "BSp(5)"}),
    ("CII", (8, 8), "Steenrod", {"operation": "Sq^4", "x": "q8", "lifted-from": "BSp(8)"}),
    ("AII", (6,), "PartialProjectivePlane", {"map": "Sigma HP^5 -> AII(6)", "min_degree": "5"}),
)


def _space_label(family: str, params: tuple) -> str:
    return f"{family}({','.join(str(p) for p in params)})"


def make_certificate_check(space: str, criterion: str, witness: dict):
    def verify(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        try:
            payload = json.loads(out)
            got = dict(payload["witness"])
            kind, got_space = payload["kind"], payload["space"]
            got_criterion, conclusion = payload["criterion"], payload["conclusion"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparseable certificate: {exc}"
        if kind != "certificate" or got_space != space or got_criterion != criterion:
            return f"got {kind} {got_space} {got_criterion}, expected certificate {space} {criterion}"
        wrong = {k: got.get(k) for k, v in witness.items() if got.get(k) != v}
        if wrong:
            return f"witness entries {wrong}"
        if conclusion != f"Omega({space}) {NONCOMMUTATIVE}":
            return f"conclusion {conclusion!r}"
        return None

    return verify


def ladder_items(seed: int) -> list:
    items = []
    for family, params, criterion, witness in LADDER:
        flags = ("--n", str(params[0])) if len(params) == 1 else (
            "--m", str(params[0]), "--n", str(params[1]))
        space = _space_label(family, params)
        items.append(Item(space, ("check", family) + flags + ("--format", "structured"),
                          make_certificate_check(space, criterion, witness)))
    # processes share nothing, so the order only guards against order effects
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# rational_algebra: presentations of complex Grassmannians


def grassmannian_relations(k: int, n: int) -> list:
    """The relations h_{n-k+1}, ..., h_n of H*(Gr_k(C^n); Q) = Q[c_1..c_k]/(h).

    h_j is the degree-2j part of 1/(1 + c_1 + ... + c_k), so
    h_j = -(c_1 h_{j-1} + ... + c_k h_{j-k}).  Each relation is a dict from
    exponent tuples (c_1..c_k) to integer coefficients.
    """
    h = [{(0,) * k: 1}]
    for j in range(1, n + 1):
        acc: dict = {}
        for i in range(1, min(j, k) + 1):
            for exps, c in h[j - i].items():
                e = list(exps)
                e[i - 1] += 1
                e = tuple(e)
                acc[e] = acc.get(e, 0) - c
        h.append({e: c for e, c in acc.items() if c})
    return h[n - k + 1:]


def gaussian_binomial(n: int, k: int) -> list:
    """Coefficients of the Gaussian binomial [n choose k]_q, lowest degree first."""
    if k < 0 or k > n:
        return []
    if k in (0, n):
        return [1]
    # q-Pascal: [n, k] = [n-1, k-1] + q^k [n-1, k]
    out = [0] * (k * (n - k) + 1)
    for d, c in enumerate(gaussian_binomial(n - 1, k - 1)):
        out[d] += c
    for d, c in enumerate(gaussian_binomial(n - 1, k)):
        out[d + k] += c
    return out


def grassmannian_hilbert(k: int, n: int) -> list:
    """Expected graded dimensions of H*(Gr_k(C^n)) in degrees 0..2k(n-k)."""
    dims = [0] * (2 * k * (n - k) + 1)
    for d, c in enumerate(gaussian_binomial(n, k)):
        dims[2 * d] = c
    return dims


def grassmannian_presentation(k: int, n: int, seed: int) -> str:
    """Presentation-file text for Gr_k(C^n), with signs chosen by the seed.

    The seed substitutes c_i = s_i y_i and scales each relation by r_j, with
    s_i, r_j in {1, -1}.  These are graded automorphisms, so the Hilbert
    function does not change.  Fractional scalars made exact elimination up
    to 1.6x slower, so they would make the cost depend on the seed.
    """
    rng = random.Random(seed)
    gen_sign = [rng.choice((1, -1)) for _ in range(k)]
    lines = [f"# Gr_{k}(C^{n}), seed {seed}", "field rational"]
    lines += [f"generator c{i} {2 * i}" for i in range(1, k + 1)]
    for j, rel in zip(range(n - k + 1, n + 1), grassmannian_relations(k, n)):
        r = rng.choice((1, -1))
        lines.append(f"relation {2 * j} explicit")
        for exps, c in sorted(rel.items()):
            for s, e in zip(gen_sign, exps):
                c *= s ** e
            lines.append(f"term {c * r} " + " ".join(str(e) for e in exps))
    lines.append("end")
    return "\n".join(lines) + "\n"


def make_hilbert_check(k: int, n: int):
    expected = grassmannian_hilbert(k, n)

    def verify(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        try:
            payload = json.loads(out)
            dims, ci = payload["dimensions"], payload["complete_intersection"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparseable hilbert output: {exc}"
        if dims != expected:
            return f"dimensions {dims} != Gaussian binomial {expected}"
        if ci is not True:
            return f"complete intersection: {ci}"
        return None

    return verify


def make_model_check(k: int):
    def verify(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        try:
            payload = json.loads(out)
            model, ok = payload["model"], payload["d_squared_zero"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparseable model output: {exc}"
        if ok is not True:
            return f"d^2 = 0: {ok}"
        lines = model.splitlines()
        odd = [ln for ln in lines if ln.startswith("d y") and not ln.endswith("= 0")]
        if len(lines) != 1 + 2 * k or len(odd) != k:
            return f"model has {len(lines) - 1} differentials, {len(odd)} non-zero; expected {2 * k}, {k}"
        return None

    return verify


# (command, k, n): Gr_k(C^n) has Poincare polynomial [n choose k]_{t^2} and top
# degree 2k(n-k); Gr_4(C^10) takes over 120 s and is the next rung.
RATIONAL = (
    ("hilbert", 2, 8),
    ("hilbert", 2, 10),
    ("hilbert", 3, 8),
    ("hilbert", 3, 9),
    ("hilbert", 3, 10),
    ("model", 3, 9),
    ("model", 3, 10),
)


def rational_items(seed: int) -> list:
    items = []
    for index, (command, k, n) in enumerate(RATIONAL):
        text = grassmannian_presentation(k, n, seed * 1000 + index)
        if command == "hilbert":
            argv = ("hilbert", "--file", "gr.pres", "--up-to", str(2 * k * (n - k)),
                    "--complete-intersection", "--format", "structured")
            verify = make_hilbert_check(k, n)
        else:
            argv = ("model", "--file", "gr.pres", "--format", "structured")
            verify = make_model_check(k)
        items.append(Item(f"{command} Gr_{k}(C^{n})", argv, verify, {"gr.pres": text}))
    return items


# workload name -> function from the seed to the items of one pass
WORKLOADS = {"desk_report": desk_items, "engine_ladder": ladder_items, "rational_algebra": rational_items}
