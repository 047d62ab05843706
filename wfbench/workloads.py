"""Seeded inputs for the three workloads, built without calling wfdim.

An input is an ``Input``: the field (d is None for Q), the roots as
((a, b), multiplicity) pairs meaning a + b sqrt(d), and the leading
coefficient as an (a, b) pair.  The program receives it either as a
``FactoredInput`` (``to_factored``) or as JSON spec bytes (``to_spec``).

A workload is an endless sequence of rounds, drawn on demand, and no input
is sent twice: an input whose polynomial was drawn before is replaced by a
fresh draw.
Every round holds the same multiplicity profiles, with the same roots
carrying an irrational part; the seed draws the roots, the leading
coefficients and the order.  Cost depends mostly on the profile, so a fixed
mix keeps run-to-run spread down while every op still sends new numbers
through the arithmetic.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)

# Denominators and leading coefficients as in the package's acceptance corpus.
_DENOMINATORS = (1, 1, 1, 2, 3, 4)
_LEADING = (1, 1, 1, 2, -1, Fraction(3, 2))

SQRT3, GAUSSIAN = 3, -1


@dataclass(frozen=True)
class Input:
    d: int | None
    roots: tuple[tuple[tuple[Fraction, Fraction], int], ...]
    leading: tuple[Fraction, Fraction]

    @property
    def degree(self) -> int:
        return sum(mult for _, mult in self.roots)


# A slot of a round: the field, and a (multiplicity, has an irrational part)
# pair per root.
Slot = tuple[int | None, tuple[tuple[int, bool], ...]]


class Workload:
    """Rounds of distinct inputs for one workload and seed.

    ``first`` is the first timed round, which is also the digest set and the
    counted set of a traced run; ``warmup`` holds inputs run before timing;
    ``next_round()`` draws the following rounds.
    """

    def __init__(self, name: str, seed: int, slots: list[Slot], span: int,
                 groups: int, tail_percentile: int, via_json: bool):
        self.name = name
        self.round_size = len(slots)
        # Fixed tail percentile: the highest that leaves at least ten latency
        # samples beyond it in a run on the machine in baseline.json.
        self.tail_percentile = tail_percentile
        self.via_json = via_json
        self._slots = slots
        self._span = span
        self._groups = groups
        self._rng = random.Random(f"wfbench:{name}:{seed}")
        self._drawn: set = set()
        self.warmup = sorted(self.next_round(), key=lambda inp: inp.degree)[:2]
        self.first = self.next_round()

    def next_round(self) -> tuple[Input, ...]:
        """The slots in a seeded order, one new input each.  Slots are dealt
        in ``groups`` interleaved lanes (one per field for corpus-quad), each
        shuffled on its own, so consecutive ops cycle through the fields."""
        lanes = [self._slots[k::self._groups] for k in range(self._groups)]
        for lane in lanes:
            self._rng.shuffle(lane)
        return tuple(self._input(d, shape) for row in zip(*lanes) for d, shape in row)

    def _input(self, d: int | None, shape: tuple[tuple[int, bool], ...]) -> Input:
        rng = self._rng
        while True:
            roots: list[tuple[Fraction, Fraction]] = []
            while len(roots) < len(shape):
                x = _scalar(rng, self._span, shape[len(roots)][1])
                if x not in roots:
                    roots.append(x)
            inp = Input(d, tuple(zip(roots, (mult for mult, _ in shape))),
                        (Fraction(rng.choice(_LEADING)), ZERO))
            # The same polynomial, whatever the order of its roots.
            key = (d, frozenset(inp.roots), inp.leading)
            if key not in self._drawn:
                self._drawn.add(key)
                return inp


def profile(inp: Input) -> tuple:
    """The slot an input was drawn for: its field and, per root, the
    multiplicity and whether it has an irrational part."""
    return (inp.d or 0, tuple(sorted((mult, b != 0) for (_, b), mult in inp.roots)))


def _fraction(rng: random.Random, span: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(_DENOMINATORS))


def _scalar(rng: random.Random, span: int, irrational: bool) -> tuple[Fraction, Fraction]:
    a = _fraction(rng, span)
    return (a, _fraction(rng, span) if irrational else ZERO)


def _corpus_profile(rng: random.Random) -> list[int]:
    """Multiplicities with 4 <= degree <= 12: 0-4 simple roots, 0-3 double
    roots, 0-2 roots of multiplicity 3-5."""
    while True:
        n1 = rng.randint(0, 4)
        n2 = rng.randint(0, 3)
        higher = [rng.randint(3, 5) for _ in range(rng.randint(0, 2))]
        if 4 <= n1 + 2 * n2 + sum(higher) <= 12:
            return [1] * n1 + [2] * n2 + higher


CORPUS_ROUND = 60


def corpus(name: str, seed: int, fields: tuple[int | None, ...], tail: int) -> Workload:
    """The acceptance-corpus distribution.  Profile i of a round is always
    over ``fields[i % len(fields)]``, with the same roots carrying an
    irrational part."""
    profile_rng = random.Random("wfbench:corpus-profiles")
    profiles = [_corpus_profile(profile_rng) for _ in range(CORPUS_ROUND)]
    irrational_rng = random.Random("wfbench:corpus-irrational")
    slots = []
    for i, mults in enumerate(profiles):
        d = fields[i % len(fields)]
        slots.append((d, tuple((m, d is not None and irrational_rng.random() < 0.5)
                               for m in mults)))
    return Workload(name, seed, slots, 9, len(fields), tail, via_json=False)


# One round: (degree, profile kind).  Half the round is the (24, 0)
# profile, in the middle by cost, so with whole rounds the median and the
# tail percentile fall well inside a block of inputs of one profile: a
# single op's time varies by a tenth or more on a shared machine, and a
# median over more ops of one profile varies less.
HIGHDEG_ROUND = ((16, 1), (20, 2), (24, 0), (24, 0), (24, 0), (24, 0), (28, 1), (32, 0))


def _highdeg_profile(kind: int, n: int) -> list[int]:
    if kind == 0:   # mixed: two double roots, a triple and a quadruple root
        multiple = [2, 2, 3, 4]
    elif kind == 1:  # simple-root heavy: one double root, all others simple
        multiple = [2]
    else:           # multiple-root heavy
        multiple = [2, 2, 2, 4, 5]
    return [1] * (n - sum(multiple)) + multiple


def highdeg(seed: int) -> Workload:
    """Degrees 16-32 over Q, sent as JSON specs; every round holds the
    eight (degree, kind) pairs of HIGHDEG_ROUND in a seeded order."""
    slots = [(None, tuple((m, False) for m in _highdeg_profile(kind, n)))
             for n, kind in HIGHDEG_ROUND]
    return Workload("dim-highdeg", seed, slots, 12, 1, 60, via_json=True)


def build(name: str, seed: int) -> Workload:
    if name == "corpus-q":
        return corpus(name, seed, (None,), 97)
    if name == "corpus-quad":
        return corpus(name, seed, (SQRT3, GAUSSIAN), 95)
    if name == "dim-highdeg":
        return highdeg(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("corpus-q", "corpus-quad", "dim-highdeg")


# -- what the program receives ----------------------------------------------------


def _wire(x: tuple[Fraction, Fraction]) -> list[str]:
    a, b = x
    if b == 0:
        return ["rat", str(a.numerator), str(a.denominator)]
    return ["quad", str(a.numerator), str(a.denominator), str(b.numerator), str(b.denominator)]


def to_spec(inp: Input) -> bytes:
    """The input as a ``wfdim dim`` JSON spec."""
    field = {"kind": "rational"} if inp.d is None else {"kind": "quadratic", "d": inp.d}
    spec = {
        "field": field,
        "roots": [[_wire(root), mult] for root, mult in inp.roots],
        "leading": _wire(inp.leading),
    }
    return json.dumps(spec, sort_keys=True).encode()


def fields(wfdim) -> dict:
    """The package's fields, by d, built once per run as a user would."""
    return {None: wfdim.Field.rationals(), SQRT3: wfdim.Field.quadratic(SQRT3),
            GAUSSIAN: wfdim.Field.quadratic(GAUSSIAN)}


def to_factored(inp: Input, wfdim, field) -> object:
    """The input as a ``wfdim.FactoredInput`` over ``field``."""
    roots = [(field.scalar(a, b), mult) for (a, b), mult in inp.roots]
    return wfdim.FactoredInput(field, roots, field.scalar(*inp.leading))


# -- what the program returns, in wire form ----------------------------------------


def report_output(report) -> dict:
    """The fields of a ``WfReport`` the checker and the digest read."""
    g = report.grouping
    return {
        "case": report.case_tag,
        "dim": report.dimension,
        "basis": [[_wire((c.a, c.b)) for c in p.coeffs] for p in report.basis],
        "degree": g.n, "n1": g.n1, "n2": g.n2, "N3": g.N3, "r": g.r, "mu": g.mu,
    }


def envelope_output(text: str) -> dict:
    """The same fields, plus the route dims, read from a ``wfdim dim`` JSON
    envelope.  The envelope's volatile ``timings`` key is not read."""
    env = json.loads(text)
    keys = ("case", "dim", "basis", "degree", "n1", "n2", "N3", "r", "mu", "dims", "routes_agree")
    return {key: env[key] for key in keys}


def digest_material(out: dict) -> str:
    """The bytes an op's digest covers: dim, case and the wire-format basis."""
    return json.dumps({"case": out["case"], "dim": out["dim"], "basis": out["basis"]},
                      sort_keys=True, separators=(",", ":"))
