"""The benchmark's workloads: seeded request streams, the timed call, and the gate.

Each workload turns a seed into a stream of requests (inputs only), times
each request's calls into public ``hyperoct`` functions, and checks the
answer afterwards against a different code path: the closed-form
classifier for the oracle, the independent invariant-moment reference in
``reference.py`` for everything else, and the library's answer for the
fields the CLI prints.  The seed changes radii, weights and indices, never
the shape of the mix, so run-to-run figures are comparable across seeds.

Calls go through module attributes (``moments.verify_strength``) so the
traced run, which rebinds those attributes, sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import reference as ref
from tracer import hyperoct_modules
from hyperoct import cli, harmonic, moments, orbit, solver, strength, tight


class Request(NamedTuple):
    kind: str
    args: tuple
    label: str


def _rational(rng: random.Random, top: int = 12) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, top))


def _layers(cfg) -> list[tuple[int, Fraction, Fraction]]:
    return [(layer.k, layer.r_squared, layer.weight) for layer in cfg.layers]


def _config(n: int, layers) -> orbit.DesignConfig:
    return orbit.make_config(n, list(layers))


def _g_pairs(max_n: int) -> list[tuple[int, int, int]]:
    """Every (n, k1, k2) with k1 < k2 <= n <= max_n on which the G form vanishes."""
    return [
        (n, k1, k2)
        for n in range(3, max_n + 1)
        for k1 in range(1, n + 1)
        for k2 in range(k1 + 1, n + 1)
        if ref.g_form(n, k1, k2) == 0
    ]


def _random_union(rng: random.Random, n: int, max_layers: int):
    ks = rng.sample(range(1, n + 1), rng.randint(1, min(max_layers, n)))
    return [(k, _rational(rng), _rational(rng)) for k in ks]


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers in [lo, hi], one from each of ``count`` equal strata, shuffled."""
    width = hi - lo + 1
    values = []
    for j in range(count):
        first = lo + width * j // count
        values.append(rng.randint(first, max(first, lo + width * (j + 1) // count - 1)))
    rng.shuffle(values)
    return values


def _t5_pair(rng: random.Random, n: int):
    """Two layers with weights cancelling degree 4 (reference-solved).

    Every n >= 3 has index pairs straddling the balance point (n+2)/3, so the
    draw always ends.
    """
    while True:
        k1, k2 = sorted(rng.sample(range(1, n + 1), 2))
        r1, r2 = _rational(rng), _rational(rng)
        w2 = ref.pair_weight(n, k1, r1, k2, r2)
        if w2 is not None:
            w1 = _rational(rng)
            return [(k1, r1, w1), (k2, r2, w1 * w2)]


def _g_pair(rng: random.Random, pairs, perturb: bool = False):
    """A two-orbit 7-design on one sphere; ``perturb`` breaks its weights."""
    n, k1, k2 = rng.choice(pairs)
    r2, w1 = _rational(rng), _rational(rng)
    w2 = w1 * ref.pair_weight(n, k1, r2, k2, r2)
    if perturb:
        w2 *= Fraction(rng.randint(2, 9), rng.randint(10, 17))
    return n, [(k1, r2, w1), (k2, r2, w2)]


def lru_caches() -> list:
    """Every lru_cache in the library, found before any tracer wraps them."""
    found = {}
    for module in hyperoct_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                found[id(value)] = value
    return list(found.values())


def clear_caches(caches) -> None:
    for cache in caches:
        cache.cache_clear()


def _mismatch(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


class Workload:
    name = ""
    why = ""
    # run in a fresh interpreter to measure set-up; "src" and "bench" are on its path
    setup_code = "import hyperoct"
    # time is checked only between whole batches, so a run's mix never depends on where time ran out
    batch = 1
    # requests in one measured operation: the latency metrics take the summed latency of each run
    # of this many consecutive requests
    op_requests = 1
    # whose peak RSS is reported: the runner ("self") or its largest child ("children")
    rss_who = "self"
    # each request runs in a child process (unless in_process is set)
    spawns = False
    # set by the traced run: a workload that starts processes runs in this one instead
    in_process = False
    # bytes the program printed, counted only when running in-process
    stdout_bytes = 0

    def prepare(self, seed: int, workdir: Path) -> None:
        """Untimed per-run preparation that is not part of set-up (inputs on disk)."""

    def warm_up(self) -> None:
        """Untimed work a long-lived caller does once before serving requests."""

    def before_call(self) -> None:
        """Untimed step before each timed call."""

    def requests(self, seed: int):
        """The request stream; endless unless the workload is a fixed job list."""
        raise NotImplementedError

    def execute(self, req: Request):
        raise NotImplementedError

    def check(self, req: Request, result) -> str | None:
        """None when the answer is right, else a one-line reason."""
        raise NotImplementedError

    def notes(self, latencies) -> list[str]:
        """Extra human-readable lines for the untimed summary."""
        return []


class OracleLarge(Workload):
    name = "oracle-large"
    why = (
        "cold definition-level verification of every property-G 7-design pair with n <= 11 "
        "and at most 20,000 points; the moments/orbit kernel does almost all the work"
    )
    # n=11 J={2,7} (42,460 points) and n=14 (over 10 minutes) are left out on purpose
    JOBS = ((5, (1, 3)), (8, (1, 4)), (8, (2, 8)), (10, (2, 7)), (11, (1, 5)))

    def __init__(self):
        self.job_seconds: list[tuple[str, float]] = []

    def requests(self, seed):
        """One request: the whole job list, so every latency figure is its wall time."""
        rng = random.Random(f"{self.name}:{seed}")
        jobs = []
        for n, J in self.JOBS:
            r2, scale = _rational(rng), _rational(rng)
            bump = Fraction(rng.randint(2, 9), rng.randint(10, 17))
            design = solver.solve_t7(n, J, {k: r2 for k in J}).solution
            design = _config(n, [(k, r, w * scale) for k, r, w in _layers(design)])
            (k1, r1, w1), (k2, r2_, w2) = _layers(design)
            twin = _config(n, [(k1, r1, w1), (k2, r2_, w2 * bump)])
            jobs.append((f"n{n}_J{J[0]}-{J[1]}", design, twin))
        yield Request("oracle", tuple(jobs), "job list")

    def execute(self, req):
        results, self.job_seconds = [], []
        for label, design, twin in req.args:
            start = perf_counter()
            results.append((moments.verify_strength(design, 7), moments.first_failure(twin, 7)))
            self.job_seconds.append((label, perf_counter() - start))
        return results

    def check(self, req, result):
        for (label, design, twin), (verdict, twin_failure) in zip(req.args, result):
            problem = self._job_problem(design, twin, verdict, twin_failure)
            if problem:
                return f"{label}: {problem}"
        return None

    @staticmethod
    def _job_problem(design, twin, verdict, twin_failure) -> str | None:
        problem = _mismatch("design verdict", verdict, strength.classify(design).strength >= 7)
        if problem or not verdict:
            return problem or "design rejected"
        if twin_failure is None:
            return "perturbed twin passed degree 7"
        return _mismatch("twin failing degree", twin_failure.degree, strength.classify(twin).strength + 1)

    def notes(self, latencies):
        return [f"wall_s = {sum(latencies):.3f} s", *(f"job {label}: {sec:.3f} s raw" for label, sec in self.job_seconds)]


class DesignScan(Workload):
    name = "design-scan"
    why = (
        "closed-form requests only (classify, solve, tau_table, fisher_bound, property_g) "
        "at 3 <= n <= 40; strength and solver without any oracle"
    )
    MAX_N = 40
    # requests of each kind in every batch of 100, shuffled within the batch; the shares put the
    # median inside the flat middle of classify's latencies and p90 clear of the costly tau_table
    # calls, where a small shift of the mix would move them most
    MIX = (("classify", 56), ("solve_t5", 14), ("solve_t7", 14), ("tau_table", 8), ("fisher", 4), ("property_g", 4))
    batch = 100

    def __init__(self):
        self.g_pairs = _g_pairs(self.MAX_N)

    def requests(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            # one n per stratum of the range, so a batch's cost does not depend on the seed
            sizes = {kind: _strata(rng, 3, self.MAX_N, count) for kind, count in self.MIX}
            sizes["property_g"] = _strata(rng, 1, 150, dict(self.MIX)["property_g"])
            order = [(kind, i) for kind, count in self.MIX for i in range(count)]
            rng.shuffle(order)
            for kind, i in order:
                yield getattr(self, f"_make_{kind}")(rng, sizes[kind][i], i)

    def _make_classify(self, rng, n, i):
        # per ten: 4 random unions, 3 degree-4-cancelling pairs, 2 property-G 7-designs, 1 perturbed twin
        if i % 10 < 4:
            layers = _random_union(rng, n, 4)
        elif i % 10 < 7:
            layers = _t5_pair(rng, n)
        else:
            n, layers = _g_pair(rng, self.g_pairs, perturb=i % 10 == 9)
        return Request("classify", (_config(n, layers),), f"classify n={n}")

    def _make_solve_t5(self, rng, n, i):
        J = tuple(sorted(rng.sample(range(1, n + 1), 1 if i % 3 == 0 else 2)))
        return Request("solve_t5", (n, J, {k: _rational(rng) for k in J}), f"solve_t5 n={n} J={J}")

    def _make_solve_t7(self, rng, n, i):
        if i % 10 < 3:
            n, *J = rng.choice(self.g_pairs)
        else:
            J = sorted(rng.sample(range(1, n + 1), 2 if i % 3 == 0 else 3))
        r2 = _rational(rng)
        return Request("solve_t7", (n, tuple(J), {k: r2 for k in J}), f"solve_t7 n={n} J={tuple(J)}")

    def _make_tau_table(self, rng, n, i):
        return Request("tau_table", (n,), f"tau_table n={n}")

    def _make_fisher(self, rng, n, i):
        p, t = rng.randint(1, 3), rng.choice((3, 5, 7, 9))
        return Request("fisher", (n, p, t), f"fisher n={n} p={p} t={t}")

    def _make_property_g(self, rng, n, i):
        return Request("property_g", (n,), f"property_g n={n}")

    def execute(self, req):
        kind, args = req.kind, req.args
        if kind == "classify":
            return strength.classify(*args)
        if kind == "solve_t5":
            return solver.solve_t5(*args)
        if kind == "solve_t7":
            return solver.solve_t7(*args)
        if kind == "tau_table":
            return solver.tau_table(*args)
        if kind == "fisher":
            return tight.fisher_bound(*args)
        return strength.property_g(*args)

    def check(self, req, result):
        kind, args = req.kind, req.args
        if kind == "classify":
            (cfg,) = args
            return _mismatch("strength", result.strength, ref.strength(cfg.n, _layers(cfg)))
        if kind in ("solve_t5", "solve_t7"):
            n, J, r2 = args
            t = 5 if kind == "solve_t5" else 7
            possible = solver.five_design_possible(n, J) if t == 5 else solver.seven_design_possible(n, J, 1)
            problem = _mismatch("feasible", result.feasible, possible)
            if problem or not result.feasible:
                return problem
            sol = result.solution
            problem = _mismatch("solution layers", [(k, r) for k, r, _ in _layers(sol)], [(k, r2[k]) for k in J])
            if problem:
                return problem
            got = ref.strength(n, _layers(sol))
            return None if got >= t else f"solution has strength {got} < {t}"
        if kind == "tau_table":
            return _check_tau_table(args[0], result)
        if kind == "fisher":
            n, p, t = args
            return _mismatch("bound", (result.value, sum(result.per_k)), (ref.antipodal_fisher_bound(n, p, t),) * 2)
        return _mismatch("witness", result, _property_g_witness(args[0]))


@functools.lru_cache(maxsize=None)
def _property_g_witness(n: int):
    return ref.property_g_witness(n)


@functools.lru_cache(maxsize=None)
def _full_basis(n: int, s: int):
    return harmonic.full_basis(n, s)


def _check_tau_table(n: int, table) -> str | None:
    keys = {(p, j) for j in range(1, min(3, n) + 1) for p in range(1, j + 1)}
    problem = _mismatch("keys", set(table), keys) or _mismatch("values", set(table.values()) - {3, 5, 7}, set())
    if problem:
        return problem
    problem = _mismatch("tau(1,1)", table[(1, 1)], 5 if n % 3 == 1 else 3)
    has_g_pair = any(ref.g_form(n, k1, k2) == 0 for k1 in range(1, n + 1) for k2 in range(k1 + 1, n + 1))
    return problem or _mismatch("tau(1,2) == 7", table[(1, 2)] == 7, has_g_pair)


class Certify(Workload):
    name = "certify"
    why = (
        "warm in-process session of tightness certificates and max_strength_oracle at n <= 6; "
        "the same moments kernel as oracle-large, small and heavily shared in its cache"
    )
    setup_code = "import workloads; workloads.Certify().warm_up()"
    batch = 60  # 24 certificates (40%) and 36 oracle calls (60%)
    FAMILIES = {"5-3d": "tight_5_3d", "7-3d": "tight_7_3d", "7-4d": "tight_7_4d"}
    # certificates per batch; the costliest family is rare, so p99 falls mid-way through its
    # latencies rather than in their tail
    CERTIFICATES = (("5-3d", 12), ("7-3d", 11), ("7-4d", 1))
    MAX_N = 6

    def warm_up(self):
        """Fill the monomial-sum cache for every orbit and degree the stream reaches."""
        for n in range(3, self.MAX_N + 1):
            cfg = _config(n, [(k, 1, 1) for k in range(1, n + 1)])
            # the tight families (n <= 4) scan to degree 8; random unions fail at degree 4
            for degree in range(2, (8 if n <= 4 else 4) + 1, 2):
                for exponents in moments.monomials_of_degree(n, degree):
                    moments.monomial_residual(cfg, exponents)

    def requests(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        # every (n, number of layers) with n <= 6 twice per batch, so a batch's cost does not depend on the seed
        union_shapes = [(n, m) for n in range(3, self.MAX_N + 1) for m in range(1, n + 1)] * 2
        while True:
            order = [("certificate", family) for family, count in self.CERTIFICATES for _ in range(count)]
            order += [("oracle", shape) for shape in union_shapes]
            rng.shuffle(order)
            for kind, what in order:
                if kind == "certificate":
                    (r2, rho2), den = rng.sample(range(1, 13), 2), rng.randint(1, 5)
                    cfg = getattr(tight, self.FAMILIES[what])(Fraction(r2, den), Fraction(rho2, den), _rational(rng))
                    yield Request("certificate", (cfg,), f"tight {what}")
                else:
                    n, m = what
                    layers = [(k, _rational(rng), _rational(rng)) for k in rng.sample(range(1, n + 1), m)]
                    yield Request("oracle", (_config(n, layers),), f"max_strength_oracle n={n} layers={m}")

    def execute(self, req):
        (cfg,) = req.args
        if req.kind == "certificate":
            return tight.tightness_certificate(cfg)
        return moments.max_strength_oracle(cfg, t_max=9)

    def check(self, req, result):
        (cfg,) = req.args
        want = ref.strength(cfg.n, _layers(cfg))
        if req.kind == "oracle":
            return _mismatch("oracle strength", result, want)
        bound = ref.antipodal_fisher_bound(cfg.n, cfg.p, want)
        got = (result["tight"], result["size"], result["fisher_bound"]["value"], result["strength_report"]["strength"])
        return _mismatch("certificate (tight, size, bound, strength)", got, (True, bound, bound, want))


class CliSession(Workload):
    name = "cli-session"
    why = (
        "each of the ten documented CLI commands in a fresh interpreter with seeded arguments; "
        "the only workload for cli, poly and harmonic"
    )
    setup_code = "import hyperoct, hyperoct.cli"
    rss_who = "children"
    spawns = True
    # one operation is a session of three rounds of the ten commands, one after another, with
    # `basis --n 6 --s 8` (1-2 s) in one round.  A run holds under 200 commands, too few for a
    # steady 99th percentile of single commands (it would be the slowest or second-slowest heavy
    # basis); every session has the same shape and sums 30 commands
    ROUNDS = 3
    op_requests = batch = 10 * ROUNDS
    COMMANDS = ("orbit", "fisher", "property-g", "tau", "solve5", "solve7", "tight", "basis", "verify", "classify")

    def __init__(self):
        # in-process, cli.main runs with every cache cleared first, as cold as a fresh process
        self.caches = lru_caches()
        self.configs: list[tuple[str, orbit.DesignConfig]] = []
        self.expected: dict[tuple[str, ...], object] = {}
        self.env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def prepare(self, seed, workdir):
        """Write the configuration files that verify and classify read: designs and non-designs."""
        rng = random.Random(f"{self.name}:configs:{seed}")
        builders = [
            lambda: tight.tight_5_3d(*rng.sample(range(1, 9), 2)),
            lambda: tight.tight_7_3d(*rng.sample(range(1, 9), 2)),
            lambda: tight.tight_7_4d(*rng.sample(range(1, 9), 2)),
            lambda: _config(*_g_pair(rng, _g_pairs(5))),
            lambda: _config(*_g_pair(rng, _g_pairs(5), perturb=True)),
            lambda: _config(4, _t5_pair(rng, 4)),
            lambda: _config(5, _random_union(rng, 5, 3)),
            lambda: _config(3, _random_union(rng, 3, 3)),
        ]
        self.configs = []
        for i, build in enumerate(builders):
            path = workdir / f"config{i}.json"
            cfg = build()
            path.write_text(cfg.to_json())
            self.configs.append((str(path), cfg))

    def requests(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        g_pairs = _g_pairs(14)
        while True:
            # a draw per round from each stratum of the arguments whose cost varies most, so the
            # cost of a session depends little on the seed
            draws = {
                "property-g": _strata(rng, 50, 150, self.ROUNDS),
                "tau": _strata(rng, 3, 30, self.ROUNDS),
                "tight": rng.sample(sorted(Certify.FAMILIES), self.ROUNDS),
                "verify": rng.sample((3, 5, 7), self.ROUNDS),
            }
            for round_ in range(self.ROUNDS):
                order = list(self.COMMANDS)
                rng.shuffle(order)
                for command in order:
                    argv = self._argv(rng, command, round_, {k: v[round_] for k, v in draws.items()}, g_pairs)
                    yield Request(command, tuple(argv), " ".join(argv))

    def _argv(self, rng, command, round_, draw, g_pairs) -> list[str]:
        """One command line; ``round_`` is its round within the batch and ``draw`` that round's stratified draws."""

        def r2_list(ks, common=None):
            return ",".join(f"{k}={common or _rational(rng, 6)}" for k in ks)

        if command == "orbit":
            n = rng.randint(3, 7)
            return ["orbit", "--n", str(n), "--k", str(rng.randint(1, n))] + (["--count-only"] if rng.random() < 0.5 else [])
        if command == "fisher":
            return ["fisher", "--n", str(rng.randint(3, 12)), "--p", str(rng.randint(1, 3)), "--t", str(rng.choice((3, 5, 7, 9)))]
        if command == "property-g":
            return ["property-g", "--max", str(draw["property-g"])]
        if command == "tau":
            return ["tau", "--n", str(draw["tau"])]
        if command == "solve5":
            n = rng.randint(3, 12)
            J = sorted(rng.sample(range(1, n + 1), rng.choice((1, 2, 2))))
            return ["solve", "--n", str(n), "--J", ",".join(map(str, J)), "--t", "5", "--r2", r2_list(J)]
        if command == "solve7":
            if rng.random() < 0.5:
                n, *J = rng.choice(g_pairs)
            else:
                n = rng.randint(4, 12)
                J = sorted(rng.sample(range(1, n + 1), 3))
            return ["solve", "--n", str(n), "--J", ",".join(map(str, J)), "--t", "7", "--r2", r2_list(J, _rational(rng, 6))]
        if command == "tight":
            (r2, rho2), den = rng.sample(range(1, 13), 2), rng.randint(1, 5)
            return ["tight", "--family", draw["tight"], "--r2", f"{r2}/{den}", "--rho2", f"{rho2}/{den}"]
        if command == "basis":
            # round 0 the heavy basis, round 1 a criterion basis, round 2 a small full or fully-even one
            if round_ == 0:
                return ["basis", "--n", "6", "--s", "8"]
            if round_ == 1:
                return ["basis", "--n", str(rng.randint(3, 6)), "--s", str(rng.choice((2, 4, 6, 8))), "--criterion"]
            variant = ["--fully-even"] if rng.random() < 0.5 else []
            return ["basis", "--n", str(rng.randint(3, 5)), "--s", str(rng.randint(1, 4)), *variant]
        path, _ = rng.choice(self.configs)
        if command == "verify":
            return ["verify", "--config", path, "--t", str(draw["verify"])]
        return ["classify", "--config", path]

    def before_call(self):
        if self.in_process:
            clear_caches(self.caches)

    def execute(self, req):
        argv = list(req.args)
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            self.stdout_bytes += len(out.getvalue().encode())
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "hyperoct.cli", *argv],
            env=self.env, capture_output=True, text=True, timeout=120, check=False,
        )
        return proc.returncode, proc.stdout

    def check(self, req, result):
        code, stdout = result
        try:
            data = json.loads(stdout)
        except ValueError:
            return f"exit {code}, output is not JSON"
        want_code, want = self._expected(req)
        return _mismatch("exit code", code, want_code) or _mismatch("output", data, want)

    def _expected(self, req) -> tuple[int, object]:
        """Exit code and JSON the library's own answer implies for one command line."""
        key = req.args
        if key not in self.expected:
            self.expected[key] = self._library_answer(req.kind, dict(zip(key[1::2], key[2::2])), key)
        return self.expected[key]

    def _library_answer(self, kind, opts, argv):
        def rationals(text):
            return {int(k): Fraction(v) for k, v in (item.split("=") for item in text.split(","))}

        if kind == "orbit":
            n, k = int(opts["--n"]), int(opts["--k"])
            data = {"n": n, "k": k, "count": ref.orbit_size(n, k)}
            if "--count-only" not in argv:
                data["points"] = [list(p) for p in orbit.orbit_tuples(n, k)]
            return 0, data
        if kind == "fisher":
            n, p, t = (int(opts[f]) for f in ("--n", "--p", "--t"))
            bound = tight.fisher_bound(n, p, t).to_json_dict()
            return 0, (bound if bound["value"] == ref.antipodal_fisher_bound(n, p, t) else None)
        if kind == "property-g":
            top = int(opts["--max"])
            witnesses = {n: _property_g_witness(n) for n in range(1, top + 1)}
            values = [n for n, w in witnesses.items() if w]
            return 0, {"max": top, "values": values, "witnesses": {str(n): list(witnesses[n]) for n in values}}
        if kind == "tau":
            n = int(opts["--n"])
            table = solver.tau_table(n)
            return 0, {"n": n, "tau": {f"p={p},j={j}": v for (p, j), v in sorted(table.items())}}
        if kind in ("solve5", "solve7"):
            n, J = int(opts["--n"]), [int(k) for k in opts["--J"].split(",")]
            result = (solver.solve_t5 if kind == "solve5" else solver.solve_t7)(n, J, rationals(opts["--r2"]))
            return (0 if result.feasible else 1), result.to_json_dict()
        if kind == "tight":
            cfg = getattr(tight, Certify.FAMILIES[opts["--family"]])(Fraction(opts["--r2"]), Fraction(opts["--rho2"]))
            return 0, tight.tightness_certificate(cfg)
        if kind == "basis":
            n, s = int(opts["--n"]), int(opts["--s"])
            if "--criterion" in argv:
                elements = [p.canonical_str() for p in harmonic.criterion_basis(n, s).elements]
                return 0, {"n": n, "s": s, "kind": "criterion", "elements": elements}
            basis = _full_basis(n, s)
            kind_name = "full"
            if "--fully-even" in argv:
                basis, kind_name = harmonic.fully_even_subset(basis), "fully-even"
            elements = [{"index": list(el.index), "poly": el.poly.canonical_str()} for el in basis]
            return 0, {"n": n, "s": s, "kind": kind_name, "elements": elements}
        cfg = dict(self.configs)[opts["--config"]]
        want = ref.strength(cfg.n, _layers(cfg))
        if kind == "classify":
            report = strength.classify(cfg).to_json_dict()
            return 0, (report if report["strength"] == want else None)
        t = int(opts["--t"])
        if want >= t:
            return 0, {"t": t, "is_design": True, "first_failure": None}
        failure = moments.first_failure(cfg, t)
        if failure is None:
            return 1, "a failure the oracle did not find"
        witness = {"degree": want + 1, "monomial": list(failure.exponents), "residual": str(failure.residual)}
        return 1, {"t": t, "is_design": False, "first_failure": witness}


WORKLOADS = {w.name: w for w in (OracleLarge, DesignScan, Certify, CliSession)}
