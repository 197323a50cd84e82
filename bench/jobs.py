"""Seeded job lists for the three workloads, and the exact check of each output.

A job is one ``qwhitney`` command line plus a check that takes the bytes the
command wrote to standard output and returns None when they are exactly
right, or a one-line reason otherwise.  The generator draws only content from
the seed (evaluation points, shift values, formats, the rows a check samples),
never sizes, so every seed gives the same amount of work.

The oracles here are written independently of the package's recurrences:
rows of w come from expanding the defining products with dense integer
coefficients, rows of W from inverting the identity that defines them in
terms of those products, and Cauchy values from termwise integration of the
products.
Text and LaTeX cells are compared by rendering the oracle through the
package's public ``BiPoly`` type, which is the only package code a check uses.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

WORKLOADS = ("point-eval", "symbolic", "verify")

SUITES = (
    "first-kind-oracle",
    "second-kind-oracle",
    "egf",
    "inversion",
    "orthogonality",
    "shift",
    "cheon",
    "reductions",
    "classical",
)

# Check counts printed by `qwhitney verify` at the commit that introduced this
# benchmark, keyed by (n_max, number of shift values).  A count may only change
# when a later change says why.
SUITE_CHECKS = {
    (12, 4): {
        "first-kind-oracle": 52, "second-kind-oracle": 52, "egf": 208, "inversion": 13,
        "orthogonality": 286, "shift": 52, "cheon": 143, "reductions": 958, "classical": 39,
    },
    (3, 2): {
        "first-kind-oracle": 16, "second-kind-oracle": 16, "egf": 28, "inversion": 4,
        "orthogonality": 34, "shift": 8, "cheon": 18, "reductions": 112, "classical": 12,
    },
}

# Input sizes.  FULL is what the benchmark measures; SMOKE keeps the same job
# shapes at sizes that run in well under a second, for the benchmark's tests.
FULL = {
    "eval_n": 300, "eval_cauchy_n": 40,
    "sym_n": 54, "sym_stirling_n": 25, "sym_cauchy_n": 44, "sym_egf_order": 22,
    "verify_n": 12, "verify_shifts": 4,
}
SMOKE = {
    "eval_n": 12, "eval_cauchy_n": 6,
    "sym_n": 6, "sym_stirling_n": 5, "sym_cauchy_n": 5, "sym_egf_order": 5,
    "verify_n": 3, "verify_shifts": 2,
}

Check = Callable[[bytes], "str | None"]


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Check


def make_jobs(workload: str, seed: int, sizes: dict[str, int] = FULL) -> list[Job]:
    """The job list of one pass; the same (workload, seed, sizes) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "point-eval":
        return _point_eval_jobs(rng, sizes)
    if workload == "symbolic":
        return _symbolic_jobs(rng, sizes)
    if workload == "verify":
        return _verify_jobs(rng, sizes)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


# -- seeded values -------------------------------------------------------------


def _numerator(rng: random.Random, den: int) -> int:
    """A numerator in 16..31 coprime to den, so the fraction never reduces.

    Reduction would shrink every entry of a row and with it the work, so the
    band is what keeps a seed from changing the scale of a job.
    """
    while True:
        a = rng.randint(16, 31)
        if math.gcd(a, den) == 1:
            return a


# Per-slot denominators of (q, r); fixed so that a slot's entry sizes do not
# depend on the seed.
_EVAL_DENS = ((23, 29), (19, 31), (29, 17), (31, 23), (17, 19))


def _eval_point(rng: random.Random, slot: int) -> tuple[Fraction, Fraction]:
    b, d = _EVAL_DENS[slot % len(_EVAL_DENS)]
    q = Fraction(_numerator(rng, b), b)
    r = Fraction(rng.choice((1, -1)) * _numerator(rng, d), d)
    return q, r


def _x0(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, -1)) * _numerator(rng, 37), 37)


# -- point-eval ------------------------------------------------------------------

# (kind, format) of the triangle jobs and of the cauchy jobs.  Three large
# triangles and two small Cauchy values: the median job is a triangle, so
# job_p50_s follows the numeric recurrence.
_EVAL_TRIANGLES = (("w", "text"), ("W", "csv"), ("W", "json"))
_EVAL_CAUCHY = (("first", "text"), ("second", "json"))


def _point_eval_jobs(rng: random.Random, sizes: dict[str, int]) -> list[Job]:
    jobs = []
    slot = 0
    for kind, fmt in _EVAL_TRIANGLES:
        q, r = _eval_point(rng, slot)
        slot += 1
        n_max = sizes["eval_n"]
        rows = sorted(rng.sample(range(1, n_max), 2)) + [n_max]
        argv = ("triangle", "--kind", kind, "--n-max", str(n_max),
                "--eval", f"q={q},r={r}", "--format", fmt)
        check = partial(_check_eval_triangle, kind, fmt, n_max, q, r, tuple(rows), _x0(rng))
        jobs.append(Job(argv, check))
    for kind, fmt in _EVAL_CAUCHY:
        q, r = _eval_point(rng, slot)
        slot += 1
        n = sizes["eval_cauchy_n"]
        argv = ("cauchy", "--kind", kind, "--n", str(n),
                "--eval", f"q={q},r={r}", "--format", fmt)
        jobs.append(Job(argv, partial(_check_eval_cauchy, kind, fmt, n, q, r)))
    return jobs


def _eval_cells(kind, fmt, n_max, q, r, out: bytes) -> "list[list[str]] | str":
    """Rows of raw value strings from a numeric triangle, or a reason it is malformed."""
    text = out.decode()
    if fmt == "json":
        payload = json.loads(text)
        header = {"kind": kind, "n_max": n_max, "eval": {"q": str(q), "r": str(r)}}
        if {key: payload.get(key) for key in header} != header:
            return "json header differs from the request"
        rows = payload.get("entries")
        if not isinstance(rows, list) or len(rows) != n_max + 1:
            return "json entries have the wrong number of rows"
        return [[f"{e['num']}/{e['den']}" for e in row] for row in rows]
    lines = text.split("\n")
    if lines[-1] != "":
        return "output does not end with a newline"
    lines.pop()
    if fmt == "csv":
        if not lines or lines[0] != "n,k,value":
            return "missing csv header"
        lines = lines[1:]
    expected = (n_max + 1) * (n_max + 2) // 2
    if len(lines) != expected:
        return f"{len(lines)} cells, expected {expected}"
    rows: list[list[str]] = []
    i = 0
    for n in range(n_max + 1):
        row = []
        for k in range(n + 1):
            label = f"{n},{k}," if fmt == "csv" else f"n={n} k={k}: "
            line = lines[i]
            if not line.startswith(label):
                return f"cell {i} is labelled {line[:24]!r}, expected {label!r}"
            row.append(line[len(label):])
            i += 1
        rows.append(row)
    return rows


def _check_eval_triangle(kind, fmt, n_max, q, r, rows, x0, out: bytes) -> "str | None":
    """Σ_k w(n,k) x0^k = Π_i (x0 - r - iq);  Σ_k W(n,k) Π_{i<k} (x0 - r - iq) = x0^n."""
    cells = _eval_cells(kind, fmt, n_max, q, r, out)
    if isinstance(cells, str):
        return cells
    for n, row in enumerate(cells):
        if len(row) != n + 1:
            return f"row {n} has {len(row)} entries"
    for n in rows:
        values = [Fraction(c) for c in cells[n]]
        if kind == "w":
            lhs = Fraction(0)
            for v in reversed(values):
                lhs = lhs * x0 + v
            rhs = Fraction(1)
            for i in range(n):
                rhs *= x0 - r - i * q
        else:
            lhs = Fraction(0)
            basis = Fraction(1)
            for k, v in enumerate(values):
                lhs += v * basis
                basis *= x0 - r - k * q
            rhs = x0**n
        if lhs != rhs:
            return f"row {n} fails the defining identity at x0={x0}"
    return None


def _cauchy_value(kind: str, n: int, q: Fraction, r: Fraction) -> Fraction:
    """Integral over [0, 1] of (x - r | q)_n, or of (-x + r | q)_n for the second kind."""
    coeffs = [Fraction(1)]  # coefficients of x^0, x^1, ...
    sign = 1 if kind == "first" else -1
    for j in range(n):
        c = -(r + j * q) if kind == "first" else r - j * q
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, a in enumerate(coeffs):
            nxt[k + 1] += sign * a
            nxt[k] += c * a
        coeffs = nxt
    return sum((a / (k + 1) for k, a in enumerate(coeffs)), Fraction(0))


def _check_eval_cauchy(kind, fmt, n, q, r, out: bytes) -> "str | None":
    want = _cauchy_value(kind, n, q, r)
    text = out.decode()
    if fmt == "json":
        ok = json.loads(text) == {
            "kind": kind, "n": n, "eval": {"q": str(q), "r": str(r)},
            "entries": {"num": want.numerator, "den": want.denominator},
        }
    elif fmt == "csv":
        ok = text == f"n,value\n{n},{want}\n"
    else:
        ok = text == f"{want}\n"
    return None if ok else f"value differs from the integral oracle {want}"


# -- symbolic --------------------------------------------------------------------

# Homogeneous polynomial of degree d in (q, r) as a dense list c, c[i] being the
# coefficient of q^(d-i) r^i.


def _hmul_linear(p: list[int], a: int, b: int) -> list[int]:
    """p times (a*q + b*r)."""
    out = [0] * (len(p) + 1)
    for i, c in enumerate(p):
        out[i] += a * c
        out[i + 1] += b * c
    return out


def _x_step(prev: list[list[int]], linear: Callable[[int], tuple[int, int]], x_sign: int):
    """Multiply sum_k prev[k] x^k by (x_sign*x + a*q + b*r), where (a, b) = linear(k)."""
    out = []
    for k in range(len(prev) + 1):
        parts = []
        if k < len(prev):
            parts.append(_hmul_linear(prev[k], *linear(k)))
        if k >= 1:
            parts.append([x_sign * c for c in prev[k - 1]])
        out.append(parts[0] if len(parts) == 1 else [x + y for x, y in zip(*parts)])
    return out


def _first_rows(n_max: int) -> list[list[list[int]]]:
    """Rows of w: the coefficients of x^k in (x - r | q)_n = Π_{i<n} (x - r - iq)."""
    rows = [[[1]]]
    for i in range(n_max):
        rows.append(_x_step(rows[-1], lambda k, i=i: (-i, -1), 1))
    return rows


@lru_cache(maxsize=None)
def _second_rows(n_max: int) -> list[list[list[int]]]:
    """Rows of W from their defining identity x^n = Σ_k W(n,k) (x - r | q)_k.

    Matching the coefficient of x^j on both sides, with w(k,j) the rows of
    _first_rows, gives Σ_{k=j..n} W(n,k) w(k,j) = [j = n]; since w(k,k) = 1,
    each row is solved from k = n downwards.
    """
    first = _first_rows(n_max)
    rows = []
    for n in range(n_max + 1):
        row: list[list[int]] = [[]] * (n + 1)
        row[n] = [1]
        for j in range(n - 1, -1, -1):
            acc = [0] * (n - j + 1)
            for k in range(j + 1, n + 1):
                a, b = row[k], first[k][j]
                for i, c in enumerate(a):
                    if c:
                        for m, d in enumerate(b):
                            acc[i + m] += c * d
            row[j] = [-c for c in acc]
        rows.append(row)
    return rows


def _int_rows(n_max: int, shift: int) -> list[list[int]]:
    """Coefficients of x^k in Π_{i<n} (x - shift - i): Stirling (shift 0) and r-Stirling rows."""
    rows = [[1]]
    for i in range(n_max):
        prev = rows[-1]
        m = shift + i
        rows.append([(prev[k - 1] if k >= 1 else 0) - (m * prev[k] if k <= i else 0)
                     for k in range(i + 2)])
    return rows


def _terms(h: list[int], scale: Fraction = Fraction(1)) -> dict[tuple[int, int], Fraction]:
    d = len(h) - 1
    return {(d - i, i): c * scale for i, c in enumerate(h) if c}


def _cauchy_terms(kind: str, n: int) -> dict[tuple[int, int], Fraction]:
    """c_n(r) or chat_n(r) as {(dq, dr): coefficient}, by termwise integration.

    The integrand is Π_{j<n} (x - r - jq) for the first kind and
    Π_{j<n} (-x + r - jq) for the second.
    """
    x_sign, r_coeff = (1, -1) if kind == "first" else (-1, 1)
    coeffs = [[1]]
    for j in range(n):
        coeffs = _x_step(coeffs, lambda k, j=j: (-j, r_coeff), x_sign)
    total: dict[tuple[int, int], Fraction] = {}
    for k, h in enumerate(coeffs):
        for key, c in _terms(h, Fraction(1, k + 1)).items():
            total[key] = total.get(key, Fraction(0)) + c
    return {key: c for key, c in total.items() if c}


def _records(terms: dict[tuple[int, int], Fraction]) -> list[dict[str, int]]:
    """The package's canonical record order: total degree, then dr, then dq, descending."""
    keys = sorted(terms, key=lambda k: (-(k[0] + k[1]), -k[1], -k[0]))
    return [{"dq": dq, "dr": dr, "num": terms[(dq, dr)].numerator,
             "den": terms[(dq, dr)].denominator} for dq, dr in keys]


def _render(terms: dict[tuple[int, int], Fraction], fmt: str) -> str:
    from qwhitney.poly import BiPoly  # the package's renderer, applied to the oracle value

    p = BiPoly(terms)
    return p.to_latex() if fmt == "latex" else p.to_text()


_SYM_FORMATS = ("text", "latex", "json", "csv")


def _symbolic_jobs(rng: random.Random, sizes: dict[str, int]) -> list[Job]:
    jobs = []
    # The four large triangles take the four formats in a seeded order, so
    # every seed writes one large JSON payload, which sets peak_rss_mb.
    formats = rng.sample(_SYM_FORMATS, 4)
    slots = [(kind, fmt, sizes["sym_n"]) for kind, fmt in zip("wwWW", formats)]
    # s and sr substitute q = 1, r = r0 into every symbolic entry, which costs
    # about twenty times the w build at the same n (n = 60 takes 13-15 s), so
    # they run at a smaller n.
    slots += [("s", "json", sizes["sym_stirling_n"]), ("sr", "text", sizes["sym_stirling_n"])]
    for kind, fmt, n_max in slots:
        argv = ["triangle", "--kind", kind, "--n-max", str(n_max), "--format", fmt]
        r0 = None
        if kind == "sr":
            r0 = rng.randint(2, 4)
            argv += ["--r0", str(r0)]
        jobs.append(Job(tuple(argv), partial(_check_sym_triangle, kind, fmt, n_max, r0)))
    # The remaining slots keep one format each: they sit around the median
    # job, and a seeded format would move job_p50_s from seed to seed.
    for kind, fmt in (("first", "latex"), ("second", "text")):
        n = sizes["sym_cauchy_n"]
        argv = ("cauchy", "--kind", kind, "--n", str(n), "--format", fmt)
        jobs.append(Job(argv, partial(_check_sym_cauchy, kind, fmt, n)))
    for which, fmt in (("c", "csv"), ("chat", "json"), (f"w:{rng.randint(2, 3)}", "latex")):
        order = sizes["sym_egf_order"]
        argv = ("egf", "--which", which, "--order", str(order), "--format", fmt)
        jobs.append(Job(argv, partial(_check_egf, which, fmt, order)))
    return jobs


def _check_poly_lines(fmt, cells, lines, label) -> "str | None":
    """Compare rendered cells line by line; cells are term dicts, label(i) the line prefix."""
    if len(lines) != len(cells):
        return f"{len(lines)} cells, expected {len(cells)}"
    for i, (terms, line) in enumerate(zip(cells, lines)):
        want = label(i) + _render(terms, fmt)
        if line != want:
            return f"cell {i}: got {line[:60]!r}, want {want[:60]!r}"
    return None


def _triangle_oracle(kind: str, n_max: int, r0: "int | None") -> list[list[dict]]:
    if kind in ("s", "sr"):
        rows = _int_rows(n_max, r0 or 0)
        return [[({(0, 0): Fraction(c)} if c else {}) for c in row] for row in rows]
    rows = _first_rows(n_max) if kind == "w" else _second_rows(n_max)
    return [[_terms(h) for h in row] for row in rows]


def _check_sym_triangle(kind, fmt, n_max, r0, out: bytes) -> "str | None":
    oracle = _triangle_oracle(kind, n_max, r0)
    text = out.decode()
    if fmt == "json":
        payload = json.loads(text)
        want = {"kind": kind, "n_max": n_max}
        if kind == "sr":
            want["r0"] = r0
        want["entries"] = [[_records(t) for t in row] for row in oracle]
        return None if payload == want else "json payload differs from the oracle triangle"
    lines = text.split("\n")
    if lines.pop() != "":
        return "output does not end with a newline"
    if fmt == "csv":
        if not lines or lines.pop(0) != "n,k,value":
            return "missing csv header"
    index = [(n, k) for n in range(n_max + 1) for k in range(n + 1)]
    cells = [oracle[n][k] for n, k in index]
    if fmt == "csv":
        return _check_poly_lines(fmt, cells, lines, lambda i: "{},{},".format(*index[i]))
    return _check_poly_lines(fmt, cells, lines, lambda i: "n={} k={}: ".format(*index[i]))


def _check_sym_cauchy(kind, fmt, n, out: bytes) -> "str | None":
    terms = _cauchy_terms(kind, n)
    text = out.decode()
    if fmt == "json":
        ok = json.loads(text) == {"kind": kind, "n": n, "entries": _records(terms)}
    elif fmt == "csv":
        ok = text == f"n,value\n{n},{_render(terms, 'text')}\n"
    else:
        ok = text == _render(terms, fmt) + "\n"
    return None if ok else "polynomial differs from the integral oracle"


def _check_egf(which, fmt, order, out: bytes) -> "str | None":
    """Coefficient n of an EGF is the n-th polynomial (or column entry) over n!."""
    if which == "c":
        cells = [_cauchy_terms("first", n) for n in range(order + 1)]
    elif which == "chat":
        cells = [_cauchy_terms("second", n) for n in range(order + 1)]
    else:
        k = int(which[2:])
        rows = _first_rows(order)
        cells = [_terms(rows[n][k]) if k <= n else {} for n in range(order + 1)]
    cells = [{key: c / math.factorial(n) for key, c in t.items()} for n, t in enumerate(cells)]
    text = out.decode()
    if fmt == "json":
        want = {"kind": which, "order": order, "entries": [_records(t) for t in cells]}
        return None if json.loads(text) == want else "json payload differs from the oracle series"
    lines = text.split("\n")
    if lines.pop() != "":
        return "output does not end with a newline"
    if fmt == "csv":
        if not lines or lines.pop(0) != "n,value":
            return "missing csv header"
        return _check_poly_lines("text", cells, lines, lambda i: f"{i},")
    return _check_poly_lines(fmt, cells, lines, lambda i: f"t^{i}: ")


# -- verify ------------------------------------------------------------------------

# Per-slot denominators of the shift values; the first slot is an integer shift.
_SHIFT_DENS = (1, 29, 7, 17)


def _verify_jobs(rng: random.Random, sizes: dict[str, int]) -> list[Job]:
    n_max = sizes["verify_n"]
    count = sizes["verify_shifts"]
    shifts = []
    for d in _SHIFT_DENS[:count]:
        a = rng.randint(2, 9) if d == 1 else _numerator(rng, d)
        shifts.append(str(Fraction(rng.choice((1, -1)) * a, d)))
    # The joined form: a value after a separate argument that starts with "-"
    # would be read by argparse as an option.
    shift_arg = "--shift-values=" + ",".join(shifts)
    expected = SUITE_CHECKS[(n_max, count)]
    order = list(SUITES)
    rng.shuffle(order)
    return [
        Job(("verify", "--suite", name, "--n-max", str(n_max), shift_arg),
            partial(_check_verify, name, expected[name]))
        for name in order
    ]


def _check_verify(name: str, checks: int, out: bytes) -> "str | None":
    want = f"suite {name}: ok ({checks} checks)\n"
    got = out.decode()
    return None if got == want else f"got {got.strip()!r}, want {want.strip()!r}"
