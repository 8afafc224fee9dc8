"""Deterministic structured fuzzer for the ingestion → explanation path.

Seeded mutation of assembly listings and ACFG payloads, driven through
the full stack: parser → CFG recovery → feature extraction → sanitizer
→ reduction → GNN forward → all five explainers.  The invariant under
test is *typed rejection or success, never a crash and never a NaN*:

* hostile text must be rejected with :class:`~repro.disasm.ParseError`
  / :class:`~repro.disasm.CFGBuildError` (or survive parsing cleanly);
* corrupted graph payloads must be caught by the
  :class:`~repro.harden.sanitize.GraphSanitizer` as fatal findings;
* every sanitizer-clean graph must flow through the static reduction
  passes (:func:`repro.reduce.reduce_sample` with every pass enabled)
  either raising a typed error (``ValueError`` /
  :class:`~repro.nn.NumericalError`) or producing finite merged
  features and a valid lift map;
* everything that survives sanitation must flow through the GNN and
  every explainer without raising and without producing non-finite
  scores.

Any other exception — or a corruption the sanitizer misses, or a NaN
downstream — is recorded as a :class:`CrashRepro` with a greedily
minimized reproducer, optionally persisted to disk.  Everything is
driven by one seed, so a crash report's ``(seed, iteration)`` pair
replays exactly.

Run directly::

    python -m repro.harden.fuzz --iterations 500 --seed 0 --out crashes/
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.acfg.dataset import ACFGDataset
from repro.acfg.features import NUM_FEATURES
from repro.acfg.graph import ACFG, from_sample
from repro.baselines.gnnexplainer import GNNExplainerBaseline
from repro.baselines.pgexplainer import PGExplainerBaseline
from repro.baselines.subgraphx import SubgraphXBaseline
from repro.core.interpret import CFGExplainer
from repro.core.model import CFGExplainerModel
from repro.disasm.cfg import CFGBuildError, build_cfg
from repro.disasm.parser import ParseError, parse_program
from repro.explain.counterfactual import CFExplainer
from repro.gnn.model import GCNClassifier
from repro.harden.sanitize import GraphSanitizer, HostileInputError
from repro.malgen.corpus import LabeledSample, block_motif_tags, generate_corpus
from repro.malgen.families import FAMILIES
from repro.nn import NumericalError
from repro.reduce import ReduceConfig, reduce_acfg

__all__ = ["CrashRepro", "FuzzConfig", "FuzzReport", "run_fuzz", "main"]

#: Typed, *expected* rejections — anything else that escapes is a crash.
HANDLED_ERRORS = (ParseError, CFGBuildError, HostileInputError, NumericalError)

#: Typed rejections the reduction passes are allowed to raise.
REDUCE_HANDLED_ERRORS = (ValueError, NumericalError)

#: Every reduction pass enabled so the fuzzer exercises them all.
_FUZZ_REDUCE_CONFIG = ReduceConfig(
    prune_dead_stores=True,
    filter_leaves=True,
    leaf_max_in_degree=8,
    max_rounds=8,
)

#: Hostile line fragments the text mutator splices in.
_HOSTILE_LINES = (
    "jmp nowhere_%d",
    "call missing_%d",
    "frobnicate eax, ebx",
    "mov eax, 'unterminated",
    "mov eax, [ebx + 4",
    ":",
    "x" * 300 + ":",
    "mov eax,,, ebx",
    "jmp",
    "; \x00\x01\x02 binary junk",
)

#: Clean built-in seed listings (mutation starting points).
_BUILTIN_SEEDS = (
    "entry:\n    mov eax, 1\n    cmp eax, 0\n    je done\n    inc eax\ndone:\n    ret",
    "start:\n    xor eax, eax\nloop_top:\n    add eax, 1\n    cmp eax, 10\n"
    "    jl loop_top\n    call ds:Sleep\n    ret",
    "f:\n    push ebp\n    mov ebp, esp\n    call g\n    pop ebp\n    ret\n"
    "g:\n    nop\n    ret",
)


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs for one fuzzing campaign (fully determined by ``seed``)."""

    iterations: int = 500
    seed: int = 0
    #: Run the five explainers on every k-th sanitizer-clean graph.
    explain_every: int = 25
    #: Route every k-th sanitizer-clean sample through the serving path
    #: (:meth:`repro.serve.InferenceEngine.submit`) as well.
    serve_every: int = 10
    #: Directory crash repros are persisted to (None = in-memory only).
    out_dir: str | Path | None = None
    #: Extra seed listings (e.g. ``tests/data/hostile``), ``*.asm`` files.
    hostile_dir: str | Path | None = None
    max_instructions: int = 5_000
    max_line_length: int = 2_000
    #: Cap on greedy-minimization reparse attempts per crash.
    minimize_budget: int = 200


@dataclass(frozen=True)
class CrashRepro:
    """One invariant violation, with a minimized reproducer."""

    seed: int
    iteration: int
    stage: str  # parse | cfg | acfg | sanitize | reduce | forward | explain | serve
    error_type: str
    message: str
    text: str  # minimized assembly listing ("" for payload-only crashes)
    mutation: str = ""

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "iteration": self.iteration,
            "stage": self.stage,
            "error_type": self.error_type,
            "message": self.message,
            "mutation": self.mutation,
            "text": self.text,
        }


@dataclass
class FuzzReport:
    """Campaign outcome: throughput counters plus every crash found."""

    iterations: int = 0
    parsed: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    quarantined: int = 0
    reduced: int = 0
    forwards: int = 0
    explained: int = 0
    served: int = 0
    crashes: list[CrashRepro] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.crashes

    def note_rejection(self, stage: str, error: BaseException) -> None:
        key = f"{stage}:{type(error).__name__}"
        self.rejected[key] = self.rejected.get(key, 0) + 1

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "parsed": self.parsed,
            "rejected": dict(sorted(self.rejected.items())),
            "quarantined": self.quarantined,
            "reduced": self.reduced,
            "forwards": self.forwards,
            "explained": self.explained,
            "served": self.served,
            "crashes": [c.to_dict() for c in self.crashes],
            "ok": self.ok,
        }

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.iterations} iteration(s) — {self.parsed} parsed, "
            f"{self.quarantined} quarantined, {self.reduced} reduced, "
            f"{self.forwards} forward passes, "
            f"{self.explained} explained, {self.served} served, "
            f"{len(self.crashes)} crash(es)"
        ]
        for key, count in sorted(self.rejected.items()):
            lines.append(f"  rejected {key:<32} {count}")
        for crash in self.crashes:
            lines.append(
                f"  CRASH iter={crash.iteration} stage={crash.stage} "
                f"{crash.error_type}: {crash.message}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# text mutations
# ----------------------------------------------------------------------
def _mutate_text(text: str, rng: np.random.Generator, pool: list[str]) -> str:
    """Apply one random structural mutation to an assembly listing."""
    lines = text.splitlines() or [""]
    op = int(rng.integers(0, 8))
    i = int(rng.integers(0, len(lines)))
    if op == 0:  # drop a line
        del lines[i]
    elif op == 1:  # duplicate a line (duplicate labels, repeated code)
        lines.insert(i, lines[i])
    elif op == 2:  # swap two lines (labels drift away from their code)
        j = int(rng.integers(0, len(lines)))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 3:  # truncate a line mid-token
        if lines[i]:
            lines[i] = lines[i][: int(rng.integers(0, len(lines[i])))]
    elif op == 4:  # corrupt one character
        if lines[i]:
            j = int(rng.integers(0, len(lines[i])))
            ch = chr(int(rng.integers(33, 127)))
            lines[i] = lines[i][:j] + ch + lines[i][j + 1 :]
    elif op == 5:  # splice in a hostile fragment
        fragment = _HOSTILE_LINES[int(rng.integers(0, len(_HOSTILE_LINES)))]
        lines.insert(i, fragment % rng.integers(0, 100) if "%d" in fragment else fragment)
    elif op == 6:  # splice lines from a different seed
        other = pool[int(rng.integers(0, len(pool)))].splitlines()
        if other:
            k = int(rng.integers(0, len(other)))
            lines[i:i] = other[k : k + int(rng.integers(1, 4))]
    else:  # glue two lines together
        if i + 1 < len(lines):
            lines[i] = lines[i] + " " + lines.pop(i + 1)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# payload mutations (in-memory ACFG corruption)
# ----------------------------------------------------------------------
def _corrupt_payload(graph: ACFG, rng: np.random.Generator) -> str | None:
    """Corrupt a built ACFG in place; returns the mutation name.

    Every mutation here is *fatal* under the default sanitizer policy,
    so ``check_acfg`` must flag the graph — a clean bill of health
    after corruption is an invariant violation (``sanitizer_miss``).
    """
    if graph.n_real == 0 or graph.features.size == 0:
        return None
    kind = ("feat_nan", "feat_inf", "feat_negative", "adj_bad_value")[
        int(rng.integers(0, 4))
    ]
    row = int(rng.integers(0, graph.n_real))
    col = int(rng.integers(0, graph.num_features))
    if kind == "feat_nan":
        graph.features[row, col] = np.nan
    elif kind == "feat_inf":
        graph.features[row, col] = np.inf
    elif kind == "feat_negative":
        graph.features[row, col] = -7.0
    else:
        graph.adjacency[row, int(rng.integers(0, graph.n_real))] = 7.0
    # The payload arrays changed under the graph's feet; a stale edge
    # list or content digest would let Â and the embedding cache serve
    # pre-corruption results and mask the very bugs this fuzzer hunts.
    graph.invalidate_memos()
    return kind


def _minimize(
    text: str, check, budget: int
) -> str:
    """Greedy line removal: drop any line whose removal keeps the crash.

    ``check(candidate)`` returns True when the candidate still triggers
    the same failure.  Bounded by ``budget`` total checks.
    """
    lines = text.splitlines()
    spent = 0
    changed = True
    while changed and spent < budget:
        changed = False
        i = 0
        while i < len(lines) and spent < budget:
            candidate = lines[:i] + lines[i + 1 :]
            spent += 1
            if check("\n".join(candidate)):
                lines = candidate
                changed = True
            else:
                i += 1
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------
class _Harness:
    """Tiny untrained-but-functional model stack the fuzzer drives."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        num_classes = len(FAMILIES)
        self.model = GCNClassifier(
            in_features=NUM_FEATURES, hidden=(8, 8), num_classes=num_classes, rng=rng
        )
        self.theta = CFGExplainerModel(
            embedding_size=8,
            num_classes=num_classes,
            scorer_hidden=(8,),
            classifier_hidden=(8,),
            rng=rng,
        )
        # PGExplainer needs its offline stage; one epoch on a miniature
        # clean corpus is enough to exercise its explain path.
        clean = generate_corpus(1, seed=seed, families=FAMILIES[:2])
        fit_set = ACFGDataset.from_corpus(clean, families=FAMILIES)
        pg = PGExplainerBaseline(self.model, hidden=8, epochs=1, seed=seed)
        pg.fit(fit_set)
        self.explainers = [
            CFGExplainer(self.model, self.theta),
            GNNExplainerBaseline(self.model, epochs=2, seed=seed),
            pg,
            SubgraphXBaseline(
                self.model,
                mcts_iterations=2,
                shapley_samples=1,
                expansion_width=2,
                seed=seed,
            ),
            CFExplainer(self.model, iterations=4, seed=seed),
        ]
        # The serving front door over the same model stack, so mutated
        # inputs also fuzz sanitize→verify→classify→explain behind
        # InferenceEngine.submit.  Gradient saliency as the default
        # explainer keeps per-submission cost at one forward+backward.
        from repro.acfg import FeatureScaler
        from repro.baselines.gradient import GradientExplainer
        from repro.serve import InferenceEngine

        scaler = FeatureScaler().fit(list(fit_set))
        self.engine = InferenceEngine(
            gnn=self.model,
            scaler=scaler,
            explainers={"Gradient": GradientExplainer(self.model)},
            families=tuple(fit_set.families),
            default_explainer="Gradient",
        )

    def forward(self, graph: ACFG) -> None:
        values = self.model.predict_proba_batch([graph])
        if not np.all(np.isfinite(values)):
            raise AssertionError(f"non-finite class probabilities: {values!r}")

    def explain(self, graph: ACFG) -> None:
        for explainer in self.explainers:
            explanation = explainer.explain(graph, step_size=50)
            scores = np.asarray(explanation.node_scores, dtype=float)
            if scores.size and not np.all(np.isfinite(scores)):
                raise AssertionError(
                    f"{explainer.name} produced non-finite node scores"
                )

    def serve(self, sample: LabeledSample) -> None:
        """One submission through the serving path; typed rejection or a
        finite response, never a crash."""
        response = self.engine.submit(sample)
        probabilities = np.asarray(response.probabilities, dtype=float)
        if not np.all(np.isfinite(probabilities)):
            raise AssertionError(
                f"serving produced non-finite probabilities: {probabilities!r}"
            )
        if response.explanation is None:
            raise AssertionError("serving returned no explanation")


def _seed_pool(config: FuzzConfig) -> list[str]:
    pool = list(_BUILTIN_SEEDS)
    # Realistic generated listings widen coverage beyond the toys above.
    for sample in generate_corpus(1, seed=config.seed, families=FAMILIES[:4]):
        pool.append(sample.program.to_text())
    if config.hostile_dir is not None:
        for path in sorted(Path(config.hostile_dir).glob("*.asm")):
            pool.append(path.read_text())
    return pool


def run_fuzz(config: FuzzConfig | None = None, **overrides) -> FuzzReport:
    """Run one deterministic fuzzing campaign and return its report."""
    config = config or FuzzConfig(**overrides)
    rng = np.random.default_rng(config.seed)
    pool = _seed_pool(config)
    harness = _Harness(config.seed)
    sanitizer = GraphSanitizer(expected_features=NUM_FEATURES)
    report = FuzzReport(iterations=config.iterations)

    for iteration in range(config.iterations):
        text = pool[int(rng.integers(0, len(pool)))]
        for _ in range(int(rng.integers(1, 4))):
            text = _mutate_text(text, rng, pool)
        crash = _drive_one(text, iteration, rng, harness, sanitizer, config, report)
        if crash is not None:
            report.crashes.append(crash)

    _persist_crashes(config, report)
    return report


def _drive_one(
    text: str,
    iteration: int,
    rng: np.random.Generator,
    harness: _Harness,
    sanitizer: GraphSanitizer,
    config: FuzzConfig,
    report: FuzzReport,
) -> CrashRepro | None:
    """Push one mutated listing through the stack; returns a crash or None."""

    def crash(stage: str, error: BaseException, mutation: str = "") -> CrashRepro:
        minimized = _minimize(
            text,
            lambda t: _same_failure(t, stage, type(error), config),
            config.minimize_budget,
        ) if stage in ("parse", "cfg", "acfg") else text
        return CrashRepro(
            seed=config.seed,
            iteration=iteration,
            stage=stage,
            error_type=type(error).__name__,
            message=str(error)[:500],
            text=minimized,
            mutation=mutation,
        )

    # 1. parse
    try:
        program = parse_program(
            text,
            name=f"fuzz_{iteration}",
            max_instructions=config.max_instructions,
            max_line_length=config.max_line_length,
        )
    except HANDLED_ERRORS as error:
        report.note_rejection("parse", error)
        return None
    except Exception as error:  # noqa: BLE001 — the invariant under test
        return crash("parse", error)
    report.parsed += 1

    # 2. CFG recovery + 3. feature extraction
    try:
        cfg = build_cfg(program)
    except HANDLED_ERRORS as error:
        report.note_rejection("cfg", error)
        return None
    except Exception as error:  # noqa: BLE001
        return crash("cfg", error)

    sample = LabeledSample(
        program=program,
        cfg=cfg,
        family=FAMILIES[0],
        label=0,
        motif_spans=[],
        block_tags=block_motif_tags(cfg, []),
    )
    findings = sanitizer.check_sample(sample)
    if any(sanitizer.is_fatal(f) for f in findings):
        report.quarantined += 1
        return None
    try:
        graph = from_sample(sample)
        findings = sanitizer.check_acfg(graph)
    except HANDLED_ERRORS as error:
        report.note_rejection("acfg", error)
        return None
    except Exception as error:  # noqa: BLE001
        return crash("acfg", error)
    if any(sanitizer.is_fatal(f) for f in findings):
        report.quarantined += 1
        return None

    # 4. payload corruption — the sanitizer must catch every one
    if rng.random() < 0.3:
        mutation = _corrupt_payload(graph, rng)
        if mutation is not None:
            try:
                post = sanitizer.check_acfg(graph)
            except Exception as error:  # noqa: BLE001
                return crash("sanitize", error, mutation)
            if not any(sanitizer.is_fatal(f) for f in post):
                return crash(
                    "sanitize",
                    AssertionError("sanitizer missed corrupted payload"),
                    mutation,
                )
            report.quarantined += 1
            return None

    # 5. static reduction — typed rejection or a valid, finite result
    try:
        result = reduce_acfg(graph, cfg=cfg, config=_FUZZ_REDUCE_CONFIG)
    except REDUCE_HANDLED_ERRORS as error:
        report.note_rejection("reduce", error)
        return None
    except Exception as error:  # noqa: BLE001
        return crash("reduce", error)
    if not np.all(np.isfinite(result.graph.features)):
        return crash(
            "reduce", AssertionError("non-finite features after merge")
        )
    order = np.sort(result.lift.lift_order(np.arange(result.graph.n_real)))
    if not np.array_equal(order, np.arange(graph.n_real)):
        return crash(
            "reduce", AssertionError("lift order is not a permutation")
        )
    report.reduced += 1

    # 6. GNN forward, 7. explainers (every k-th clean survivor)
    try:
        harness.forward(graph)
    except Exception as error:  # noqa: BLE001
        return crash("forward", error)
    report.forwards += 1
    if (report.forwards - 1) % config.explain_every == 0:
        try:
            harness.explain(graph)
        except Exception as error:  # noqa: BLE001
            return crash("explain", error)
        report.explained += 1

    # 8. serving path (every k-th clean survivor): the front door must
    # answer with a typed rejection or a finite response.
    if (report.forwards - 1) % config.serve_every == 0:
        from repro.serve import RequestRejected

        try:
            harness.serve(sample)
        except (RequestRejected, *HANDLED_ERRORS) as error:
            report.note_rejection("serve", error)
            return None
        except Exception as error:  # noqa: BLE001
            return crash("serve", error)
        report.served += 1
    return None


def _same_failure(
    text: str, stage: str, error_type: type, config: FuzzConfig
) -> bool:
    """Does ``text`` still reproduce a ``stage`` failure of ``error_type``?"""
    try:
        program = parse_program(
            text,
            name="minimize",
            max_instructions=config.max_instructions,
            max_line_length=config.max_line_length,
        )
    except HANDLED_ERRORS:
        return False
    except Exception as error:  # noqa: BLE001
        return stage == "parse" and isinstance(error, error_type)
    if stage == "parse":
        return False
    try:
        cfg = build_cfg(program)
    except HANDLED_ERRORS:
        return False
    except Exception as error:  # noqa: BLE001
        return stage == "cfg" and isinstance(error, error_type)
    if stage == "cfg":
        return False
    try:
        sample = LabeledSample(
            program=program,
            cfg=cfg,
            family=FAMILIES[0],
            label=0,
            motif_spans=[],
            block_tags=block_motif_tags(cfg, []),
        )
        from_sample(sample)
    except HANDLED_ERRORS:
        return False
    except Exception as error:  # noqa: BLE001
        return stage == "acfg" and isinstance(error, error_type)
    return False


def _persist_crashes(config: FuzzConfig, report: FuzzReport) -> None:
    if config.out_dir is None or not report.crashes:
        return
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k, repro in enumerate(report.crashes):
        (out / f"crash_{k:03d}.json").write_text(
            json.dumps(repro.to_dict(), indent=2)
        )
        if repro.text:
            (out / f"crash_{k:03d}.asm").write_text(repro.text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harden.fuzz",
        description="Deterministic structured fuzzer for the ingestion path.",
    )
    parser.add_argument("--iterations", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--explain-every", type=int, default=25)
    parser.add_argument("--out", default=None, help="directory for crash repros")
    parser.add_argument(
        "--hostile-dir", default=None, help="extra *.asm seed listings"
    )
    options = parser.parse_args(argv)
    report = run_fuzz(
        FuzzConfig(
            iterations=options.iterations,
            seed=options.seed,
            explain_every=options.explain_every,
            out_dir=options.out,
            hostile_dir=options.hostile_dir,
        )
    )
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
