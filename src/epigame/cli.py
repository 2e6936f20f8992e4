"""Command-line interface.

Exit codes: 0 when the requested verdict holds (or the command simply
succeeded), 1 when a counterexample was found, 2 on input errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from types import SimpleNamespace

from . import verify as verify_mod
from .elimination import GLOBAL, LOCAL, NotionProfile, outcome
from .epistemic import (
    EpistemicModel,
    common_box,
    parse_model,
    rat_event,
    render_model,
    validation_report,
)
from .errors import EngineError, HypothesisNotMet, ValidationError
from .games import (
    Game,
    Restriction,
    parse_game,
    render_game,
    render_restriction,
    set_bits,
)
from .generators import GeneratorConfig, generate_game, generate_model
from .lattice import EliminationTrace
from .verify import VerificationReport


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # the formats are UTF-8 text
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _render_witness(witness) -> str:
    if witness is None:
        return "-"
    if isinstance(witness, tuple):
        return ";".join(f"({','.join(t)})->{reply}" for t, reply in witness)
    return str(witness)


def render_trace(trace: EliminationTrace, mode: str, profile: NotionProfile) -> str:
    """Line-oriented dump of a full elimination run, stable field order."""
    lines = [
        f"operator: {trace.operator}",
        f"mode: {mode}",
        f"profile: {profile}",
        f"stabilized_at: {trace.stabilized_at}",
    ]
    for k, stage in enumerate(trace.stages):
        for i, component in enumerate(stage.components):
            lines.append(f"stage {k} restrict {i + 1}: " + " ".join(component))
    for record in trace.records:
        lines.append(
            f"eliminate stage={record.stage} player={record.player + 1} "
            f"strategy={record.strategy} reason={record.reason} "
            f"witness={_render_witness(record.witness)}"
        )
    for i, component in enumerate(trace.outcome.components):
        lines.append(f"outcome restrict {i + 1}: " + " ".join(component))
    return "\n".join(line.rstrip() for line in lines) + "\n"


# the payload values printed in their file format, one line per file line
_RENDERERS = {Game: render_game, EpistemicModel: render_model, Restriction: render_restriction}


def render_report(report: VerificationReport) -> str:
    lines = [
        f"claim: {report.claim}",
        f"instances: {report.instances_checked}",
        f"verdict: {report.verdict}",
    ]
    if report.seed is not None:
        lines.append(f"seed: {report.seed}")
    for note in report.notes:
        lines.append(f"note: {note}")
    payload = report.counterexample
    if payload:
        for key in sorted(payload.keys() - {"kind"}):
            value = payload[key]
            render = _RENDERERS.get(type(value))
            if render is not None:
                for line in render(value).rstrip().splitlines():
                    lines.append(f"counterexample {key}: {line}")
            elif isinstance(value, frozenset):
                lines.append(f"counterexample {key}: " + " ".join(sorted(value)))
            else:
                lines.append(f"counterexample {key}: {value}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epigame",
        description="Exact iterated elimination and epistemic analysis of finite games.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    eliminate = commands.add_parser("eliminate", help="iterate an elimination operator")
    eliminate.add_argument("--game", required=True, metavar="FILE")
    eliminate.add_argument("--notion", required=True, help="one notion or a comma list per player")
    eliminate.add_argument("--mode", choices=[GLOBAL, LOCAL], default=LOCAL)
    eliminate.add_argument("--trace", action="store_true", help="print every stage")
    eliminate.add_argument("--dump", metavar="FILE", help="write the structured trace dump")
    eliminate.set_defaults(run=_cmd_eliminate)

    epistemic = commands.add_parser("epistemic", help="evaluate events on a model")
    epistemic.add_argument("--game", required=True, metavar="FILE")
    epistemic.add_argument("--model", required=True, metavar="FILE")
    epistemic.add_argument("--profile", help="one notion or a comma list (rat; default sd)")
    epistemic.add_argument("action", choices=["rat", "commonbox", "validate"])
    epistemic.add_argument("event", nargs="?", help="comma-separated states (for commonbox)")
    epistemic.set_defaults(run=_cmd_epistemic)

    verify = commands.add_parser("verify", help="check a claim or run its random suite")
    verify.add_argument("claim", choices=list(verify_mod.CLAIMS))
    verify.add_argument("--game", metavar="FILE")
    verify.add_argument("--model", metavar="FILE")
    verify.add_argument("--profile", help="one notion or a comma list")
    verify.add_argument("--joint", help="comma-separated joint strategy (thm2)")
    verify.add_argument("--belief-class", choices=list(verify_mod.BELIEF_CLASS_NOTIONS),
                        help="cor2 (default correlated)")
    verify.add_argument("--samples", type=int, help="random suite size (default 300)")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(run=_cmd_verify)

    generate = commands.add_parser("generate", help="emit a random game or model")
    kind = generate.add_subparsers(dest="kind", required=True)
    gen_game = kind.add_parser("game")
    gen_game.add_argument("--seed", type=int, required=True)
    gen_game.add_argument("--players", type=int, nargs=2, default=(2, 2), metavar=("LO", "HI"))
    gen_game.add_argument("--strategies", type=int, nargs=2, default=(2, 3), metavar=("LO", "HI"))
    gen_game.set_defaults(run=_cmd_generate_game)
    gen_model = kind.add_parser("model")
    gen_model.add_argument("--seed", type=int, required=True)
    gen_model.add_argument("--game", required=True, metavar="FILE")
    gen_model.add_argument("--states", type=int, nargs=2, default=(2, 6), metavar=("LO", "HI"))
    gen_model.add_argument("--class", dest="target_class",
                           choices=["belief", "knowledge"], default="knowledge")
    gen_model.set_defaults(run=_cmd_generate_model)
    return parser


def _cmd_eliminate(args) -> int:
    game = parse_game(_read(args.game))
    profile = NotionProfile.parse(args.notion, game.n)
    trace = outcome(profile, game, args.mode)
    dump = render_trace(trace, args.mode, profile)
    if args.dump:
        _write(args.dump, dump)
    if args.trace:
        print(dump, end="")
    else:
        print(render_restriction(trace.outcome), end="")
        print(f"stabilized_at: {trace.stabilized_at}")
    return 0


def _cmd_epistemic(args) -> int:
    # an option the action would not read is an input error, not ignored
    if args.profile is not None and args.action != "rat":
        raise ValidationError(f"epistemic {args.action} takes no --profile")
    if args.event is not None and args.action != "commonbox":
        raise ValidationError(f"epistemic {args.action} takes no event argument")
    game = parse_game(_read(args.game))
    model = parse_model(_read(args.model), game)
    if args.action == "validate":
        print(validation_report(model), end="")
        return 0
    if model.model_class == "invalid":
        # diagnose which of the correspondence properties failed
        print(validation_report(model), end="", file=sys.stderr)
    if args.action == "rat":
        profile = NotionProfile.parse("sd" if args.profile is None else args.profile, game.n)
        event = rat_event(model, profile)
    elif args.event is None:
        raise ValidationError("commonbox needs an event argument (comma-separated states)")
    else:
        event = common_box(model, model.space.mask_of(s for s in args.event.split(",") if s))
    print(f"{args.action}: " + " ".join(model.space.states[k] for k in set_bits(event)))
    return 0


def _cmd_verify(args) -> int:
    claim, record = args.claim, verify_mod.CLAIMS[args.claim]
    single, suite = record.reads
    # an empty path is a file that cannot be read, not a missing option
    has_game, has_model = args.game is not None, args.model is not None
    reads = single if has_game else suite
    if args.samples is not None and args.samples < 1:
        raise ValidationError(f"--samples must be at least 1, got {args.samples}")
    # an option the claim would not read is an input error, not a silent suite
    # run or a silently dropped setting
    if has_game and single is None:
        raise ValidationError(f"verify {claim} takes no --game: it runs a random suite")
    if has_model and "--model" not in (single or ()):
        raise ValidationError(f"verify {claim} takes no --model")
    if has_game and not has_model and "--model" in single:
        raise ValidationError(
            f"verify {claim} would ignore --game without --model: "
            "pass both for one check, or neither for the random suite"
        )
    if reads is None:
        raise ValidationError(f"verify {claim} needs --game")
    for option in ("--profile", "--joint", "--belief-class", "--samples"):
        if getattr(args, option[2:].replace("-", "_")) is not None and option not in reads:
            with_game = " with --game" if has_game else ""
            raise ValidationError(f"verify {claim}{with_game} takes no {option}")
    if has_model and not has_game:
        raise ValidationError("--model needs --game")
    belief_class = args.belief_class or "correlated"

    try:
        if has_game:
            game = parse_game(_read(args.game))
            model = parse_model(_read(args.model), game) if has_model else None
            if "--profile" in single and args.profile is None:
                raise ValidationError(f"verify {claim} needs --profile")
            profile = None if args.profile is None else NotionProfile.parse(args.profile, game.n)
            joint = None if args.joint is None else tuple(args.joint.split(","))
            report = record.check(SimpleNamespace(
                game=game, model=model, profile=profile, joint=joint,
                belief_class=belief_class, seed=args.seed))
        else:
            samples = 300 if args.samples is None else args.samples
            report = record.suite(SimpleNamespace(
                samples=samples, seed=args.seed, profile=args.profile, belief_class=belief_class))
    except HypothesisNotMet as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return 2
    print(render_report(report), end="")
    return 0 if report.holds else 1


def _cmd_generate_game(args) -> int:
    config = GeneratorConfig(
        seed=args.seed, players=tuple(args.players), strategies=tuple(args.strategies))
    print(render_game(generate_game(config)), end="")
    return 0


def _cmd_generate_model(args) -> int:
    game = parse_game(_read(args.game))
    config = GeneratorConfig(
        seed=args.seed, states=tuple(args.states), target_class=args.target_class)
    print(render_model(generate_model(config, game)), end="")
    return 0


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # one parser, built on first use (not at import, which would slow every
    # start-up): a parser is a web of reference cycles left for the collector
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.run(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
