"""Command-line front end.

Subcommands: trace (online fold tracking), sweep (S-curves through an
oracle), nlfr (constant-force slice with fold markers), ensemble (dropout
uncertainty runs), offline (fold trace of a recorded dataset).  Every
command reads one declarative config file, whose relative input paths start
at its directory, writes CSV artifacts plus a manifest into --out, and is
bit-reproducible from that manifest.

Only ensemble uses --threads (or the config's `threads`): it counts the
worker processes of the dropout runs, forked where the platform allows,
and the ensemble's outputs are byte-identical for any count.  trace and
sweep only record it in the manifest; nlfr and offline ignore it.

Every command runs numpy's and scipy's BLAS on one thread (`blas`), so its
outputs do not depend on the machine's core count; the manifest records the
count read back.

Exit codes: 0 success, 1 config or usage error, 2 oracle error, 3
continuation failure.  The commands do not catch errors: `EXIT_CODES` maps
each error they, or click's reading of their options, may raise to its
exit code, and the `main` group prints it as one `error: <message>` line.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import click

from . import csvio
from .blas import pin_blas_threads
from .config import (config_from_dict, ensemble_config_from_dict, load_raw, make_oracle,
                     nlfr_config_from_dict, offline_config_from_dict, sweep_config_from_dict)
from .errors import ConfigError, ContinuationError, MissingInput, OracleError
from .postprocess import dropout_ensemble, nlfr_slice, offline_fold_trace, sweep_s_curve

# The exit code of each error a command may raise.  A ValueError is a value
# the command cannot take, as a ConfigError is; a UsageError is an option
# click cannot read (a bad value, an unknown or a missing option).
EXIT_CODES = {ConfigError: 1, MissingInput: 1, ValueError: 1, click.UsageError: 1,
              OracleError: 2, ContinuationError: 3}
FOLD_HEADER = ["omega", "A", "gamma_model"]


def _common(f):
    f = click.option("--config", "config_path", required=True, type=click.Path(dir_okay=False),
                     help="run configuration (YAML or manifest JSON)")(f)
    f = click.option("--out", "out_dir", default="out", show_default=True,
                     type=click.Path(file_okay=False), help="output directory")(f)
    f = click.option("--seed", default=None, type=int, help="override the config seed")(f)
    f = click.option("--threads", default=None, type=int,
                     help="ensemble: worker processes for the dropout runs (outputs are the "
                          "same for any count); trace and sweep only record it in the "
                          "manifest; nlfr and offline ignore it")(f)
    return f


@contextmanager
def _exit_codes():
    """Print an error of EXIT_CODES as one `error:` line and exit with its code.

    A bare `foldtrack` prints the help and exits 0, as `--help` does.
    """
    try:
        yield
    except click.exceptions.NoArgsIsHelpError as e:
        click.echo(e.ctx.get_help(), color=e.ctx.color)
        sys.exit(0)
    except tuple(EXIT_CODES) as e:
        message = e.format_message() if isinstance(e, click.UsageError) else e
        click.echo(f"error: {message}", err=True)
        sys.exit(next(code for cls, code in EXIT_CODES.items() if isinstance(e, cls)))


class _Main(click.Group):
    """The command group: the one place where an error becomes an exit code.

    The group's own options are read in make_context, a command's in invoke.
    """

    def make_context(self, *args, **kwargs):
        with _exit_codes():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _exit_codes():
            return super().invoke(ctx)


@click.group(cls=_Main)
def main():
    """Fold-curve tracking on GP surrogates with active data collection."""
    pin_blas_threads()


@main.command()
@_common
def trace(config_path, out_dir, seed, threads):
    """Online continuation run against the configured measurement oracle."""
    from .driver import run_trace, write_trace_artifacts

    cfg = _load(config_path, config_from_dict, seed=seed, threads=threads)
    oracle = make_oracle(cfg.oracle, run_seed=cfg.seed, base_dir=Path(config_path).parent)
    result = run_trace(cfg, oracle)
    write_trace_artifacts(out_dir, cfg, result)
    click.echo(f"traced {len(result.steps)} fold points ({result.reason}); "
               f"artifacts in {out_dir}")
    if result.status != "ok":
        sys.exit(EXIT_CODES[OracleError if result.status == "oracle_error" else ContinuationError])


@main.command()
@_common
def sweep(config_path, out_dir, seed, threads):
    """S-curve sweeps: fixed-frequency runs over a target-amplitude grid."""
    cfg = _load(config_path, sweep_config_from_dict, seed=seed, threads=threads)
    oracle = make_oracle(cfg.oracle, run_seed=cfg.seed, base_dir=Path(config_path).parent)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_rows, outputs, n_failures = [], [], 0
    for i, omega in enumerate(cfg.omegas()):
        curve = sweep_s_curve(oracle, omega, cfg.A_grid())
        n_failures += len(curve.failures)
        name = f"scurve_{i:03d}.csv"
        csvio.write_rows(out / name, csvio.DATASET_HEADER,
                         [(p.omega, p.A, p.F) for p in curve.points])
        outputs.append(name)
        all_rows.extend((p.omega, p.A, p.F) for p in curve.points)
    csvio.write_rows(out / "dataset.csv", csvio.DATASET_HEADER, all_rows)
    outputs.append("dataset.csv")
    csvio.write_manifest(out / "manifest.json", config_dict=cfg.to_dict(), seed=cfg.seed,
                         threads=cfg.threads, status="ok",
                         reason=f"{n_failures} failed points" if n_failures else "complete",
                         outputs=outputs, extra={"command": "sweep"})
    click.echo(f"swept {len(all_rows)} points over {len(outputs) - 1} frequencies; "
               f"artifacts in {out_dir}")


@main.command()
@_common
def nlfr(config_path, out_dir, seed, threads):
    """Constant-force slice of recorded data plus fold markers in the band."""
    cfg = _load(config_path, nlfr_config_from_dict)
    base = Path(config_path).parent
    datasets = [csvio.read_dataset_csv(base / p) for p in cfg.datasets]
    curves = [[r.fold for r in csvio.read_run_log(base / p)] for p in cfg.run_logs]
    result = nlfr_slice(datasets, cfg.gamma_level, cfg.band, fold_curves=curves)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csvio.write_rows(out / "slice_points.csv", csvio.DATASET_HEADER, result.points)
    csvio.write_rows(out / "fold_markers.csv", FOLD_HEADER, result.markers)
    csvio.write_manifest(out / "manifest.json", config_dict=cfg.to_dict(), seed=0, threads=1,
                         status="ok", reason=f"{len(result.markers)} fold markers",
                         outputs=["slice_points.csv", "fold_markers.csv"],
                         extra={"command": "nlfr"})
    click.echo(f"slice at {cfg.gamma_level} (+-{cfg.band:.0%}): {len(result.points)} points, "
               f"{len(result.markers)} fold markers; artifacts in {out_dir}")


@main.command()
@_common
def offline(config_path, out_dir, seed, threads):
    """Fold continuation on the surrogate of a recorded dataset (no new data)."""
    cfg = _load(config_path, offline_config_from_dict, seed=seed)
    dataset = csvio.read_dataset_csv(Path(config_path).parent / cfg.dataset)
    curve = offline_fold_trace(dataset, hyper=cfg.hyper, cfg=cfg.continuation(), x0=cfg.x0,
                               seed=cfg.seed)
    forward, backward = curve.reason
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csvio.write_run_log(out / "fold_curve.csv", curve.records)
    csvio.write_manifest(out / "manifest.json", config_dict=cfg.to_dict(), seed=cfg.seed,
                         threads=1, status="ok",
                         reason=f"{len(curve.points)} fold points",
                         outputs=["fold_curve.csv"],
                         extra={"command": "offline",
                                "hyperparameters_fitted": curve.hyper.as_dict(),
                                "stop_reasons": {"forward": forward, "backward": backward}})
    click.echo(f"offline trace: {len(curve.points)} fold points (forward {forward}, "
               f"backward {backward}); artifacts in {out_dir}")


@main.command()
@_common
def ensemble(config_path, out_dir, seed, threads):
    """Dropout uncertainty ensemble over a recorded dataset."""
    cfg = _load(config_path, ensemble_config_from_dict, seed=seed, threads=threads)
    dataset = csvio.read_dataset_csv(Path(config_path).parent / cfg.dataset)
    result = dropout_ensemble(dataset, cfg.n_runs, cfg.dropout_fraction, seed=cfg.seed,
                              cfg=cfg.continuation(), fit_n_starts=cfg.fit_n_starts,
                              threads=cfg.threads)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    hyper_keys = ("sigma_n2", "sigma_f2", "l_omega", "l_A")
    csvio.write_rows(out / "summary.csv",
                     ["run_id", "completed", "n_segments", *hyper_keys, "error"],
                     [(r.run_id, int(r.completed), r.curve.n_segments() if r.curve else 0,
                       *(getattr(r.curve.hyper, k) if r.curve else None for k in hyper_keys),
                       r.error) for r in result.runs])
    outputs = ["summary.csv"]
    for r in result.runs:
        if r.curve is not None:
            name = f"curve_{r.run_id:04d}.csv"
            csvio.write_rows(out / name, FOLD_HEADER, r.curve.as_array())
            outputs.append(name)
    csvio.write_manifest(out / "manifest.json", config_dict=cfg.to_dict(), seed=cfg.seed,
                         threads=cfg.threads, status="ok",
                         reason=f"{result.completed_fraction:.0%} runs completed",
                         outputs=outputs,
                         extra={"command": "ensemble",
                                "hyper_init": result.hyper_init.as_dict()})
    click.echo(f"ensemble: {result.completed_fraction:.0%} of {cfg.n_runs} runs completed; "
               f"artifacts in {out_dir}")


def _load(path, parser, **overrides):
    """The parsed config at `path`, each command-line override given read in place of its key."""
    raw = load_raw(path)
    raw.update({k: v for k, v in overrides.items() if v is not None})
    return parser(raw)


if __name__ == "__main__":
    main()
