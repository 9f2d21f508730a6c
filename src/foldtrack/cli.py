"""Command-line front end.

Subcommands: trace (online fold tracking), sweep (S-curves through an
oracle), nlfr (constant-force slice with fold markers), ensemble (dropout
uncertainty runs), offline (fold trace of a recorded dataset).  Every
command reads one declarative config file (`_load`) and writes CSV artifacts
plus a manifest that lists them into --out (`_write`; trace through
`driver.write_trace_artifacts`).  A relative input path starts at the
directory of the file that names it, so the manifest names each input from
--out, and the command is bit-reproducible from it wherever --out lies.

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
A trace that a failure ends after its first fold raises that error once
its artifacts are written.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import click

from . import csvio
from .blas import pin_blas_threads
from .config import (config_from_dict, ensemble_config_from_dict, load_raw, make_oracle,
                     nlfr_config_from_dict, offline_config_from_dict, rebase_inputs,
                     sweep_config_from_dict)
from .errors import ConfigError, ContinuationError, MissingInput, OracleError
from .gpr import HYPER_NAMES
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

    cfg, base = _load(config_path, config_from_dict, seed=seed, threads=threads)
    result = run_trace(cfg, make_oracle(cfg.oracle, run_seed=cfg.seed, base_dir=base))
    write_trace_artifacts(out_dir, rebase_inputs(cfg, base, out_dir), result)
    click.echo(f"traced {len(result.steps)} fold points ({result.reason}); "
               f"artifacts in {out_dir}")
    if result.error is not None:
        raise result.error


@main.command()
@_common
def sweep(config_path, out_dir, seed, threads):
    """S-curve sweeps: fixed-frequency runs over a target-amplitude grid."""
    cfg, base = _load(config_path, sweep_config_from_dict, seed=seed, threads=threads)
    oracle = make_oracle(cfg.oracle, run_seed=cfg.seed, base_dir=base)
    curves = [sweep_s_curve(oracle, omega, cfg.A_grid()) for omega in cfg.omegas()]
    rows = [[(p.omega, p.A, p.F) for p in curve.points] for curve in curves]
    dataset = [row for curve_rows in rows for row in curve_rows]
    n_failures = sum(len(curve.failures) for curve in curves)
    files = [*((f"scurve_{i:03d}.csv", csvio.DATASET_HEADER, r) for i, r in enumerate(rows)),
             ("dataset.csv", csvio.DATASET_HEADER, dataset)]
    _write(out_dir, cfg, base, files, f"swept {len(dataset)} points over {len(rows)} frequencies",
           reason=f"{n_failures} failed points" if n_failures else "complete", command="sweep")


@main.command()
@_common
def nlfr(config_path, out_dir, seed, threads):
    """Constant-force slice of recorded data plus fold markers in the band."""
    cfg, base = _load(config_path, nlfr_config_from_dict)
    datasets = [csvio.read_dataset_csv(base / p) for p in cfg.datasets]
    curves = [[r.fold for r in csvio.read_run_log(base / p)] for p in cfg.run_logs]
    result = nlfr_slice(datasets, cfg.gamma_level, cfg.band, fold_curves=curves)
    files = [("slice_points.csv", csvio.DATASET_HEADER, result.points),
             ("fold_markers.csv", FOLD_HEADER, result.markers)]
    _write(out_dir, cfg, base, files,
           f"slice at {cfg.gamma_level} (+-{cfg.band:.0%}): {len(result.points)} points, "
           f"{len(result.markers)} fold markers",
           reason=f"{len(result.markers)} fold markers", command="nlfr")


@main.command()
@_common
def offline(config_path, out_dir, seed, threads):
    """Fold continuation on the surrogate of a recorded dataset (no new data)."""
    cfg, base = _load(config_path, offline_config_from_dict, seed=seed)
    curve = offline_fold_trace(csvio.read_dataset_csv(base / cfg.dataset), hyper=cfg.hyper,
                               cfg=cfg.continuation(), x0=cfg.x0, seed=cfg.seed)
    forward, backward = curve.reason
    files = [("fold_curve.csv", csvio.RUN_LOG_HEADER, csvio.run_log_rows(curve.records))]
    _write(out_dir, cfg, base, files,
           f"offline trace: {len(curve.points)} fold points (forward {forward}, "
           f"backward {backward})",
           reason=f"{len(curve.points)} fold points", command="offline",
           hyperparameters_fitted=curve.hyper.as_dict(),
           stop_reasons={"forward": forward, "backward": backward})


@main.command()
@_common
def ensemble(config_path, out_dir, seed, threads):
    """Dropout uncertainty ensemble over a recorded dataset."""
    cfg, base = _load(config_path, ensemble_config_from_dict, seed=seed, threads=threads)
    result = dropout_ensemble(csvio.read_dataset_csv(base / cfg.dataset), cfg.n_runs,
                              cfg.dropout_fraction, seed=cfg.seed, cfg=cfg.continuation(),
                              fit_n_starts=cfg.fit_n_starts, threads=cfg.threads)
    summary = [(r.run_id, int(r.completed), r.curve.n_segments() if r.curve else 0,
                *(getattr(r.curve.hyper, k) if r.curve else None for k in HYPER_NAMES), r.error)
               for r in result.runs]
    files = [("summary.csv", ["run_id", "completed", "n_segments", *HYPER_NAMES, "error"], summary),
             *((f"curve_{r.run_id:04d}.csv", FOLD_HEADER, r.curve.as_array())
               for r in result.runs if r.curve is not None)]
    _write(out_dir, cfg, base, files,
           f"ensemble: {result.completed_fraction:.0%} of {cfg.n_runs} runs completed",
           reason=f"{result.completed_fraction:.0%} runs completed", command="ensemble",
           hyper_init=result.hyper_init.as_dict())


def _load(path, parser, **overrides):
    """The parsed config at `path`, each command-line override given read in place of
    its key, and the directory its relative input paths start at: the config's own."""
    raw = load_raw(path)
    raw.update({k: v for k, v in overrides.items() if v is not None})
    return parser(raw), Path(path).parent


def _write(out_dir, cfg, base, files, summary, *, reason, **extra):
    """Write each (name, header, rows) of `files` into `out_dir`, created if need be,
    then the manifest that lists exactly those names, and echo `summary` and where.

    The manifest embeds `cfg` with its relative input paths moved from `base`
    to `out_dir`, so it replays from there; it records the config's seed and
    threads, 0 and 1 for a config without, and `extra` adds its keys.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, header, rows in files:
        csvio.write_rows(out / name, header, rows)
    csvio.write_manifest(out / "manifest.json",
                         config_dict=rebase_inputs(cfg, base, out).to_dict(),
                         seed=getattr(cfg, "seed", 0), threads=getattr(cfg, "threads", 1),
                         status="ok", reason=reason, outputs=[name for name, _, _ in files],
                         extra=extra)
    click.echo(f"{summary}; artifacts in {out_dir}")


if __name__ == "__main__":
    main()
