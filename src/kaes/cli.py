"""Command-line interface.

Subcommands mirror the pipeline stages: ``ingest`` validates a data file,
``kernel`` warms the n-gram Gram cache, ``train``/``predict`` fit and apply
one model, and ``eval-indomain``/``eval-crossdomain``/``report`` run the full
protocols and render result tables.  Every flag can also be given in a flat
key=value config file (``--config``); explicit flags win over file values.
"""
from __future__ import annotations

import argparse
import logging
import sys
from collections import Counter
from pathlib import Path

from .boswe import load_codebook, save_codebook
from .corpus import ASAP_SCORE_RANGES
from .errors import KaesError
from .harness import (
    REPRESENTATIONS,
    ExperimentConfig,
    emit_report,
    load_essays,
    normalized_hisk_gram,
    parse_config_file,
    predict_scores,
    run_cross_domain,
    run_in_domain,
    table_from_csv,
    train_model,
    without_blank,
)
from .svr import SvrConfig, load_svr_model, save_svr_model

# Flags that set the ExperimentConfig field (or SvrConfig field) of the same name.
_CONFIG_FLAGS = {
    "representation": str, "prompt": int, "source": int, "target": int, "cache_dir": str,
    "ngram_min": int, "ngram_max": int, "k": int, "seed": int, "folds": int,
    "repetitions": int, "kmeans_iters": int,
}
_SVR_FLAGS = {"c": float, "nu": float, "kkt_tolerance": float, "max_iterations": int}


class _Resolver:
    """Merge argparse values with config-file values (flags win)."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file: dict[str, str] = {}
        if getattr(args, "config", None):
            self.file = parse_config_file(args.config)

    def get(self, key: str, cast=str, default=None):
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        if key not in self.file:
            return default
        try:
            return cast(self.file[key])
        except ValueError:
            raise KaesError(
                f"{self.args.config}: {key}={self.file[key]} is not a valid {cast.__name__}"
            ) from None


def _parse_nt(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        raise KaesError(f"nt must be comma-separated integers, got {raw!r}") from None


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="ASAP-format TSV file")
    p.add_argument("--prompt", type=int, help="prompt id 1-8")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--representation", choices=REPRESENTATIONS)
    p.add_argument("--embeddings", help="word2vec binary embeddings file")
    p.add_argument("--ngram-min", type=int, dest="ngram_min")
    p.add_argument("--ngram-max", type=int, dest="ngram_max")
    p.add_argument("--k", type=int, help="codebook size")
    p.add_argument("--c", type=float, help="regularization budget")
    p.add_argument("--nu", type=float, help="nu parameter in (0, 1]")
    p.add_argument("--kkt-tolerance", type=float, dest="kkt_tolerance")
    p.add_argument("--max-iterations", type=int, dest="max_iterations")
    p.add_argument("--kmeans-iters", type=int, dest="kmeans_iters")
    p.add_argument("--vocab-limit", type=int, dest="vocab_limit")
    p.add_argument("--seed", type=int)
    p.add_argument("--cache-dir", dest="cache_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaes", description="Kernel-based automated essay scoring toolkit."
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and summarize a data file")
    p.add_argument("--config")
    _add_data_flags(p)

    p = sub.add_parser("kernel", help="cache each prompt's n-gram Gram matrix in --cache-dir")
    p.add_argument("--config")
    _add_data_flags(p)
    _add_model_flags(p)

    p = sub.add_parser("train", help="train a scoring model on one prompt")
    p.add_argument("--config")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--out", required=True, help="output model file")

    p = sub.add_parser("predict", help="score essays with a trained model")
    p.add_argument("--config")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--model", required=True, help="model file from `train`")
    p.add_argument("--train-data", dest="train_data",
                   help="TSV with the training essays (defaults to --data)")
    p.add_argument("--out", help="write predictions TSV here instead of stdout")

    for name, extra in (("eval-indomain", False), ("eval-crossdomain", True)):
        p = sub.add_parser(name, help=f"run the {name.split('-')[1]} protocol")
        p.add_argument("--config")
        _add_data_flags(p)
        _add_model_flags(p)
        if extra:
            p.add_argument("--source", type=int)
            p.add_argument("--target", type=int)
            p.add_argument("--nt", help="comma-separated sub-sample sizes")
        p.add_argument("--repetitions", type=int)
        p.add_argument("--folds", type=int)
        p.add_argument("--format", choices=("text", "csv"))
        p.add_argument("--out", help="also write the csv table to this path")

    p = sub.add_parser("report", help="re-render a saved result table")
    p.add_argument("--config")
    p.add_argument("--table", required=True, help="csv table from an eval run")
    p.add_argument("--format", choices=("text", "csv"))

    return parser


def _require(resolver: _Resolver, key: str):
    value = resolver.get(key)
    if value is None:
        raise KaesError(f"missing required option --{key.replace('_', '-')}")
    return value


def _experiment_config(resolver: _Resolver, mode: str = "in-domain") -> ExperimentConfig:
    """Settings of any subcommand; a flag that is not set keeps the config default."""

    def given(flags: dict) -> dict:
        values = {key: resolver.get(key, cast) for key, cast in flags.items()}
        return {key: value for key, value in values.items() if value is not None}

    fields = given(_CONFIG_FLAGS)
    nt = resolver.get("nt")
    if nt:
        fields["nt"] = _parse_nt(nt)
    vocab_limit = resolver.get("vocab_limit", int)
    if vocab_limit is not None:
        fields["vocab_limit"] = vocab_limit or None  # 0 keeps every vector
    return ExperimentConfig(
        mode=mode,
        data_path=_require(resolver, "data"),
        embeddings_path=resolver.get("embeddings"),
        svr=SvrConfig(**given(_SVR_FLAGS)),
        **fields,
    )


def cmd_ingest(resolver: _Resolver) -> int:
    essays = load_essays(_require(resolver, "data"), resolver.get("prompt", int))
    by_prompt = Counter(e.prompt for e in essays)
    for prompt in sorted(by_prompt):
        scores = [e.raw_score for e in essays if e.prompt == prompt]
        declared = ASAP_SCORE_RANGES[prompt]
        print(
            f"prompt {prompt}: {by_prompt[prompt]} essays, "
            f"declared range {declared}, observed {min(scores)}-{max(scores)}"
        )
    print(f"total: {len(essays)} essays")
    return 0


def cmd_kernel(resolver: _Resolver) -> int:
    cfg = _experiment_config(resolver)
    if cfg.representation != "hisk":
        raise KaesError(
            "only the n-gram Gram matrix is cacheable ahead of time; histogram "
            "kernels depend on the per-fold codebook"
        )
    cfg.validate()
    _require(resolver, "cache_dir")
    # The same essays the protocols and `train` score, so each prompt's entry
    # is the one `eval-indomain` and `train` read.
    essays = without_blank(load_essays(cfg.data_path, cfg.prompt))
    for prompt in sorted({e.prompt for e in essays}):
        subset = [e for e in essays if e.prompt == prompt]
        normalized_hisk_gram(subset, cfg)
        print(f"kernel: prompt {prompt}: {len(subset)}x{len(subset)} cached under {cfg.cache_dir}")
    return 0


def cmd_train(resolver: _Resolver) -> int:
    cfg = _experiment_config(resolver)
    model, codebook = train_model(cfg, load_essays(cfg.data_path, cfg.prompt))
    out = _require(resolver, "out")
    save_svr_model(model, out)
    # `predict` reads a codebook beside the model, so none may outlive its model.
    if codebook is not None:
        save_codebook(codebook, out + ".codebook")
    else:
        Path(out + ".codebook").unlink(missing_ok=True)
    print(
        f"model: {len(model.support_ids)}/{len(model.train_ids)} support vectors, "
        f"epsilon={model.epsilon_star:.6f}, converged={model.converged} -> {out}"
    )
    return 0


def cmd_predict(resolver: _Resolver) -> int:
    cfg = _experiment_config(resolver)
    model_path = _require(resolver, "model")
    model = load_svr_model(model_path)
    # `train` writes a codebook beside the model when its kernel needs one.
    codebook_path = Path(model_path + ".codebook")
    codebook = load_codebook(codebook_path) if codebook_path.exists() else None
    train_essays = load_essays(resolver.get("train_data") or cfg.data_path, cfg.prompt)
    scores = predict_scores(cfg, model, codebook, load_essays(cfg.data_path, cfg.prompt),
                            train_essays)
    lines = ["essay_id\tessay_set\tprediction"]
    lines += [f"{essay.id}\t{essay.prompt}\t{score}" for essay, score in scores]
    output = "\n".join(lines) + "\n"
    out = resolver.get("out")
    if out:
        Path(out).write_text(output)
    else:
        sys.stdout.write(output)
    return 0


def _write_report(resolver: _Resolver, table) -> None:
    sys.stdout.buffer.write(emit_report(table, resolver.get("format", str, "text")))


def cmd_eval(resolver: _Resolver, mode: str) -> int:
    cfg = _experiment_config(resolver, mode)
    table = run_in_domain(cfg) if mode == "in-domain" else run_cross_domain(cfg)
    _write_report(resolver, table)
    out = resolver.get("out")
    if out:
        Path(out).write_bytes(emit_report(table, "csv"))
    return 0


def cmd_report(resolver: _Resolver) -> int:
    table = table_from_csv(Path(_require(resolver, "table")).read_bytes())
    _write_report(resolver, table)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    resolver = _Resolver(args)
    handlers = {
        "ingest": cmd_ingest,
        "kernel": cmd_kernel,
        "train": cmd_train,
        "predict": cmd_predict,
        "report": cmd_report,
    }
    try:
        if args.command == "eval-indomain":
            return cmd_eval(resolver, "in-domain")
        if args.command == "eval-crossdomain":
            return cmd_eval(resolver, "cross-domain")
        return handlers[args.command](resolver)
    except KaesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
