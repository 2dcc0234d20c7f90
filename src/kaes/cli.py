"""Command-line interface.

Subcommands mirror the pipeline stages: ``ingest`` validates a data file,
``kernel`` warms the n-gram Gram cache, ``train``/``predict`` fit and apply
one model, and ``eval-indomain``/``eval-crossdomain``/``report`` run the full
protocols and render result tables.  Each setting is declared once, in
``_SETTINGS``; a command takes as flags the settings ``_COMMANDS`` lists for
it.  Each can also come from a key=value file (``--config``); a flag wins.
A command ignores the file's keys of other commands' settings, but every
key must name a setting and hold a valid value.
"""
from __future__ import annotations

import argparse
import dataclasses
import io
import logging
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .binio import open_binary
from .corpus import _ENCODING, ASAP_SCORE_RANGES
from .errors import KaesError
from .harness import (
    REPRESENTATIONS,
    ExperimentConfig,
    emit_report,
    load_essays,
    load_model,
    normalized_hisk_gram,
    predict_scores,
    run_cross_domain,
    run_in_domain,
    save_model,
    table_from_csv,
    train_model,
    without_blank,
)
from .svr import SvrConfig


def int_list(raw: str) -> tuple[int, ...] | None:
    """Comma-separated integers; an empty value keeps the default."""
    if not raw:
        return None
    return tuple(int(part) for part in raw.split(",") if part.strip() != "")


class _Setting(NamedTuple):
    help: str
    type: Callable[[str], Any] = str
    choices: tuple[str, ...] | None = None


_SETTINGS = {
    "data": _Setting("ASAP-format TSV file"),
    "prompt": _Setting("prompt id 1-8", int),
    "representation": _Setting("kernel to score with", choices=REPRESENTATIONS),
    "embeddings": _Setting("word2vec binary embeddings file"),
    "ngram_min": _Setting("shortest n-gram length", int),
    "ngram_max": _Setting("longest n-gram length", int),
    "k": _Setting("codebook size", int),
    "kmeans_iters": _Setting("k-means iterations", int),
    "vocab_limit": _Setting("word2vec records to scan; 0 scans all", int),
    "seed": _Setting("random seed of folds, sub-samples and k-means", int),
    "c": _Setting("regularization budget", float),
    "nu": _Setting("nu parameter in (0, 1]", float),
    "kkt_tolerance": _Setting("solver stopping tolerance", float),
    "max_iterations": _Setting("solver iteration cap", int),
    "cache_dir": _Setting("n-gram Gram cache directory"),
    "source": _Setting("source prompt id", int),
    "target": _Setting("target prompt id", int),
    "nt": _Setting("comma-separated sub-sample sizes", int_list),
    "repetitions": _Setting("protocol repetitions", int),
    "folds": _Setting("folds per repetition", int),
    "format": _Setting("report format", choices=("text", "csv")),
    "table": _Setting("csv table from an eval run"),
    "model": _Setting("model file from `train`"),
    "train_data": _Setting("not read: the model holds its support essays"),
    "out": _Setting("output file: the model (train), the predictions TSV instead of stdout "
                    "(predict) or also the csv table (eval-*)"),
}

_NGRAMS = ("ngram_min", "ngram_max")
_CODEBOOK = ("embeddings", "k", "kmeans_iters", "vocab_limit", "seed")
_SVR = ("c", "nu", "kkt_tolerance", "max_iterations")
_MODEL = ("representation", *_NGRAMS, *_CODEBOOK, *_SVR, "cache_dir")
_PROTOCOL = ("repetitions", "folds", "format", "out")

# Command: (help, the settings it takes).  `predict` reads its kernel, its
# support essays, its super-words and its prompt from the model;
# --representation and --prompt are checked against it.  --embeddings,
# --train-data, --k, --kmeans-iters and --seed are taken but neither read
# nor checked, because the benchmark's `fused-score` workload
# (perfbench/workloads.py) still passes them to `predict`; they go once it
# stops.
_COMMANDS = {
    "ingest": ("validate and summarize a data file", ("data", "prompt")),
    "kernel": ("cache each prompt's n-gram Gram matrix in --cache-dir",
               ("data", "prompt", *_NGRAMS, "cache_dir")),
    "train": ("train a scoring model on one prompt", ("data", "prompt", *_MODEL, "out")),
    "predict": ("score essays with a trained model",
                ("data", "prompt", "representation", "embeddings", "k", "kmeans_iters",
                 "seed", "model", "train_data", "out")),
    "eval-indomain": ("run the indomain protocol", ("data", "prompt", *_MODEL, *_PROTOCOL)),
    "eval-crossdomain": ("run the crossdomain protocol",
                         ("data", *_MODEL, "source", "target", "nt", *_PROTOCOL)),
    "report": ("re-render a saved result table", ("table", "format")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaes", description="Kernel-based automated essay scoring toolkit."
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, names) in _COMMANDS.items():
        # No prefix matching: `--c` must not stand for `--config` or `--cache-dir`.
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="key=value settings file; flags win over it")
        for name in names:
            setting = _SETTINGS[name]
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=setting.type,
                           choices=setting.choices, help=setting.help)
    return parser


def _read_config(path: str) -> dict[str, Any]:
    """The settings of a UTF-8 key=value file, byte-order mark or not; a line whose first
    non-blank character is '#' and a blank line are skipped, and a key may be set once."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise KaesError(f"{path}: {exc}") from None
    out: dict[str, Any] = {}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        at = f"{path}: line {lineno}"
        if not eq:
            raise KaesError(f"{at}: expected key=value, got {stripped!r}")
        setting = _SETTINGS.get(key)
        if setting is None:
            raise KaesError(f"{at}: {key!r} is not a setting")
        if key in set_on:
            raise KaesError(f"{at}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            out[key] = setting.type(raw)
        except ValueError:
            raise KaesError(f"{at}: {key}={raw} is not a valid {setting.type.__name__}") from None
        if setting.choices and out[key] not in setting.choices:
            raise KaesError(f"{at}: {key}={raw} is not one of {', '.join(setting.choices)}")
    return out


def _settings(args: argparse.Namespace) -> dict[str, Any]:
    """The command's settings that a flag or the config file gives; flags win."""
    file = _read_config(args.config) if args.config else {}
    given = {name: getattr(args, name) for name in _COMMANDS[args.command][1]}
    given = {name: file.get(name) if value is None else value for name, value in given.items()}
    return {name: value for name, value in given.items() if value is not None}


def _require(settings: dict[str, Any], key: str):
    if key not in settings:
        raise KaesError(f"missing required option --{key.replace('_', '-')}")
    return settings[key]


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_SVR_FIELDS = {f.name for f in dataclasses.fields(SvrConfig)}


def _experiment_config(settings: dict[str, Any], mode: str = "in-domain") -> ExperimentConfig:
    """The command's validated ExperimentConfig; a setting that is not given
    keeps its default, and a bad one fails before any input is read."""
    fields = {key: value for key, value in settings.items() if key in _CONFIG_FIELDS}
    if "vocab_limit" in fields:
        fields["vocab_limit"] = fields["vocab_limit"] or None  # 0 keeps every vector
    cfg = ExperimentConfig(
        mode=mode,
        data_path=_require(settings, "data"),
        embeddings_path=settings.get("embeddings"),
        svr=SvrConfig(**{key: value for key, value in settings.items() if key in _SVR_FIELDS}),
        **fields,
    )
    cfg.validate()
    return cfg


def cmd_ingest(settings: dict[str, Any]) -> int:
    essays = load_essays(_require(settings, "data"), settings.get("prompt"))
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


def cmd_kernel(settings: dict[str, Any]) -> int:
    cfg = _experiment_config(settings)
    _require(settings, "cache_dir")
    # The same essays the protocols and `train` score, so each prompt's entry
    # is the one `eval-indomain` and `train` read.
    essays = without_blank(load_essays(cfg.data_path, cfg.prompt))
    for prompt in sorted({e.prompt for e in essays}):
        subset = [e for e in essays if e.prompt == prompt]
        normalized_hisk_gram(subset, cfg, must_cache=True)
        print(f"kernel: prompt {prompt}: {len(subset)}x{len(subset)} cached under {cfg.cache_dir}")
    return 0


def cmd_train(settings: dict[str, Any]) -> int:
    cfg = _experiment_config(settings)
    out = _require(settings, "out")
    with open_binary(out, "wb") as stream:
        essays = without_blank(load_essays(cfg.data_path, cfg.prompt))
        model = train_model(cfg, essays)
        save_model(model, stream)
    svr = model.svr
    print(
        f"model: {len(svr.train_ids)}/{len(essays)} support vectors, "
        f"epsilon={svr.epsilon_star:.6f}, converged={svr.converged} -> {out}"
    )
    return 0


def cmd_predict(settings: dict[str, Any]) -> int:
    with open_binary(settings.get("out") or sys.stdout.buffer, "wb") as stream:
        model = load_model(_require(settings, "model"))
        given = settings.get("representation", model.representation)
        if given != model.representation:
            raise KaesError(f"--representation {given} does not match the model, "
                            f"which was trained as {model.representation}")
        if settings.get("prompt", model.prompt) != model.prompt:
            raise KaesError(f"--prompt {settings['prompt']} does not match the model, "
                            f"which scores prompt {model.prompt}")
        scores = predict_scores(model, load_essays(_require(settings, "data")))
        lines = ["essay_id\tessay_set\tprediction"]
        lines += [f"{essay.id}\t{essay.prompt}\t{score}" for essay, score in scores]
        # Encoded as parse_asap_tsv decodes, so each id is written back as its own bytes.
        stream.write(("\n".join(lines) + "\n").encode(_ENCODING, errors="surrogateescape"))
    return 0


def _write_report(settings: dict[str, Any], table) -> None:
    sys.stdout.buffer.write(emit_report(table, settings.get("format", "text")))


def cmd_eval(settings: dict[str, Any], mode: str) -> int:
    cfg = _experiment_config(settings, mode)
    # Without --out the csv table goes to a buffer that is dropped.
    with open_binary(settings.get("out") or io.BytesIO(), "wb") as stream:
        table = run_in_domain(cfg) if mode == "in-domain" else run_cross_domain(cfg)
        _write_report(settings, table)
        stream.write(emit_report(table, "csv"))
    return 0


def cmd_report(settings: dict[str, Any]) -> int:
    table = table_from_csv(Path(_require(settings, "table")).read_bytes())
    _write_report(settings, table)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {
        "ingest": cmd_ingest,
        "kernel": cmd_kernel,
        "train": cmd_train,
        "predict": cmd_predict,
        "eval-indomain": lambda settings: cmd_eval(settings, "in-domain"),
        "eval-crossdomain": lambda settings: cmd_eval(settings, "cross-domain"),
        "report": cmd_report,
    }
    try:
        return handlers[args.command](_settings(args))
    except (KaesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
