"""Print one digest line per reference CLI run, to compare two checkouts' outputs.

Usage:
  PYTHONPATH=src python3 tools/output_digests.py OUT

`saddle_sa` is imported from PYTHONPATH, so the same script runs against any
checkout.  Every case runs `saddle_sa.cli.main` in this process with its
output under OUT/<name> (OUT must not exist yet) and prints

  <name> <exit code> <sha256>

where the hash covers the output files (relative path and bytes, in sorted
order), stdout and stderr, with OUT and the imported package's directory
replaced by placeholders in both streams.  Each case runs under its own
`warnings.catch_warnings()`, so a warning is printed in every case that
raises it, whatever ran before.  A case that raises instead of returning
prints `raised` as its exit code, adds the exception's type and message to
the hashed stderr, and prints its traceback to the real stderr.  Two
checkouts write the same outputs when their lines are identical:

  PYTHONPATH=src python3 tools/output_digests.py /tmp/new > new.txt
  PYTHONPATH=../old/src python3 tools/output_digests.py /tmp/old > old.txt
  diff old.txt new.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np

import saddle_sa
from saddle_sa.cli import main

sys.path.append(str(Path(__file__).resolve().parents[1]))
from perfbench.run import WORKLOADS  # noqa: E402  read only: the benchmark's own configs

PACKAGE_DIR = str(Path(saddle_sa.__file__).parent)

BILINEAR = "experiment = bilinear\nalgorithm = saps\nn = 3\nparallel = 1\n"
NP_SYNTH = ("experiment = neyman_pearson\nalgorithm = lsaal\nn = 10\nm_classes = 3\n"
            "points_per_class = 100\nlambda = 5.0\nparallel = 1\n")

# {data} is the LIBSVM file that write_libsvm generates.
LIBSVM = ("experiment = neyman_pearson\nalgorithm = lsaal\ndataset_path = {data}\n"
          "N_list = 50,100,200\ntrials = 2\nseed = 9\nparallel = 1\n")

# (name, subcommand, config text, --set overrides); {out} is the case's output directory.
CASES = [
    # The benchmark's three workloads at seed 0, full and tiny.
    *[(f"{name}-{size}", "run", workload.config_text(0, size, "{out}"), [])
      for name, workload in WORKLOADS.items() for size in ("full", "tiny")],
    # Acceptance criterion 11's two configs.
    ("criterion11-bilinear", "run", BILINEAR + "N_list = 30,60\ntrials = 2\nseed = 5\n", []),
    ("criterion11-neyman_pearson", "run", "experiment = neyman_pearson\nalgorithm = lsaal\nn = 5\n"
     "m_classes = 2\npoints_per_class = 15\nN_list = 25\ntrials = 2\nseed = 5\nparallel = 1\n", []),
    ("laam-m4", "run", NP_SYNTH + "N_list = 50,100,200\ntrials = 2\nseed = 3\n",
     ["algorithm=laam", "m_classes=4", "n=5", "points_per_class=20"]),
    ("tanh-l2", "run", "experiment = tanh\nalgorithm = saps\nn = 3\nregularizer = l2\n"
     "N_list = 100,300,1000\ntrials = 3\nref_pool_size = 50\nref_iters = 500\nseed = 2\nparallel = 1\n", []),
    # ScaledL1 on the signed tanh draws, in an odd-sized batch.
    ("tanh-l1-trials5", "run", "experiment = tanh\nalgorithm = saps\nn = 3\nregularizer = l1\n"
     "N_list = 100,300,1000\ntrials = 5\nref_pool_size = 50\nref_iters = 500\nseed = 13\nparallel = 1\n", []),
    ("bilinear-l2-no-averaging", "run", BILINEAR + "N_list = 100,300,1000\ntrials = 3\nseed = 4\n",
     ["regularizer=l2", "averaging=false"]),
    # n = 9 rows reach numpy's unrolled pairwise row sums (n >= 8) in the gap.
    ("bilinear-l1-n9", "run", BILINEAR + "N_list = 50,100,200\ntrials = 3\nseed = 5\n", ["n=9", "regularizer=l1"]),
    ("bilinear-max-n9", "run", BILINEAR + "N_list = 50,100,200\ntrials = 3\nseed = 5\n", ["n=9", "regularizer=max"]),
    ("bilinear-parallel2", "run", BILINEAR + "N_list = 100,300,1000\ntrials = 5\nseed = 6\n", ["parallel=2"]),
    # Pool workers send their records' metric columns back to the parent process.
    ("np-parallel2", "run", NP_SYNTH + "N_list = 50,100,200\ntrials = 3\nseed = 15\n", ["parallel=2"]),
    # Gaps near 1e300, whose sums and squares overflow a double: the
    # aggregate statistics stay finite.
    ("bilinear-huge-mu", "run", BILINEAR + "N_list = 10,20,40\ntrials = 3\nseed = 0\n", ["mu=1e300"]),
    ("bilinear-all-diverged", "run", BILINEAR + "N_list = 10,20\ntrials = 3\nseed = 7\n",
     ["schedule=harmonic", "theta=1e13", "mu=0"]),
    # One Newton step per subproblem is too few at sigma = 100: every trial fails.
    ("np-inner-max-iters-1", "run", NP_SYNTH + "N_list = 10,20\ntrials = 3\nseed = 8\n",
     ["inner_max_iters=1", "sigma=100"]),
    # Some trials fail and leave their batch midway while the others run on.
    ("bilinear-some-diverged", "run", BILINEAR + "N_list = 30,60,120\ntrials = 6\nseed = 14\n",
     ["schedule=harmonic", "theta=26", "mu=0", "trace_thinning=7"]),
    ("np-some-not-converged", "run", NP_SYNTH + "N_list = 20,40,80\ntrials = 3\nseed = 8\n",
     ["sigma=100", "inner_max_iters=12", "trace_thinning=3"]),
    ("np-no-averaging", "run", NP_SYNTH + "N_list = 20,40,80\ntrials = 3\nseed = 8\n",
     ["trace_thinning=3", "averaging=false"]),
    ("np-diagnose", "diagnose", NP_SYNTH + "N_list = 250,1000\nseed = 0\n", []),
    # Four classes: diagnose's constants over 3-row constraint Jacobians.
    ("np-diagnose-m4", "diagnose", NP_SYNTH + "N_list = 250,1000\nseed = 0\n",
     ["m_classes=4", "n=7", "points_per_class=33"]),
    # Every iteration recorded: 1 + 2 * 130 full-batch points cross several
    # full_batch_rows chunks, and the records' point arrays fill to the last row.
    ("np-thinning-1", "run", NP_SYNTH + "N_list = 50,130\ntrials = 2\nseed = 11\n", ["trace_thinning=1"]),
    ("tanh-thinning-1", "run", "experiment = tanh\nalgorithm = saps\nn = 3\nregularizer = max\n"
     "N_list = 100,300\ntrials = 3\nref_pool_size = 50\nref_iters = 500\nseed = 12\nparallel = 1\n",
     ["trace_thinning=1"]),
    # estimate_m_star on each minimax oracle's row form.
    ("bilinear-diagnose", "diagnose", BILINEAR + "N_list = 100,1000\nseed = 0\n", []),
    # An M_star estimate that overflows: exit 1 with one error line.
    ("bilinear-diagnose-overflow", "diagnose", BILINEAR + "N_list = 100,1000\nseed = 0\n", ["mu=1e308"]),
    ("tanh-diagnose", "diagnose", "experiment = tanh\nalgorithm = saps\nn = 3\nregularizer = max\n"
     "N_list = 100,1000\nseed = 1\nparallel = 1\n", []),
    # A step rule that RunConfig checks at the run's horizon.
    ("bilinear-scaled-const", "run", BILINEAR + "N_list = 100,300,1000\ntrials = 3\nseed = 10\n",
     ["schedule=scaled_const", "theta=0.5", "dist_estimate=2.0", "M_estimate=1.5"]),
    ("libsvm-subsampled", "run", LIBSVM, ["subsample_per_class=150"]),
    ("libsvm-unnormalized", "run", LIBSVM, ["normalize=false"]),
    ("libsvm-diagnose", "diagnose", LIBSVM, ["subsample_per_class=150"]),
    # Keys the experiment does not read, at non-default values: exit 1, no output.
    ("bilinear-unread-keys", "run", BILINEAR + "N_list = 100,300\ntrials = 2\nseed = 0\n",
     ["sigma=0.1", "ref_iters=5", "dataset_path=/nonexistent", "inner_tol=3"]),
    ("np-unread-schedule", "run", NP_SYNTH + "N_list = 50,100\ntrials = 2\nseed = 0\n", ["schedule=harmonic"]),
    # Synthetic-data keys beside a dataset file, which replaces them: exit 1, no output.
    ("libsvm-synthetic-keys", "run", LIBSVM, ["points_per_class=7", "separation=9", "m_classes=5", "n=2"]),
]


def write_libsvm(path: Path) -> None:
    """700 points of 3 classes over 12 features from a fixed seed, about half zero.

    Labels are interleaved, some zeros are written explicitly, and one line
    carries only its label.
    """
    rng = np.random.default_rng(20240613)
    lines = ["2"]
    for _ in range(699):
        label = int(rng.integers(1, 4))
        row = rng.normal(loc=0.5 * label, size=12) * (rng.random(12) < 0.5)
        kept = [(i, v) for i, v in enumerate(row.tolist(), start=1) if v != 0.0 or rng.random() < 0.1]
        lines.append(" ".join([str(label)] + [f"{i}:{v!r}" for i, v in kept]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def digest(argv, out_root: Path, case_dir: Path | None) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = str(main(argv))
        except Exception as exc:  # report it and go on to the next case
            traceback.print_exc(file=sys.__stderr__)
            code = "raised"
            stderr.write(f"{type(exc).__name__}: {exc}\n")
    h = hashlib.sha256()
    if case_dir is not None and case_dir.exists():
        for path in sorted(p for p in case_dir.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(case_dir)).encode() + b"\0" + path.read_bytes() + b"\0")
    for stream in (stdout, stderr):
        text = stream.getvalue().replace(str(out_root), "<OUT>").replace(PACKAGE_DIR, "<saddle_sa>")
        h.update(text.encode() + b"\0")
    return f"{code} {h.hexdigest()}"


def main_digests(out_root: Path) -> None:
    out_root.mkdir(parents=True)
    data = out_root / "data.libsvm"
    write_libsvm(data)
    print("libsvm-check-data", digest(["check-data", str(data)], out_root, None), flush=True)
    for name, command, text, overrides in CASES:
        cfg = out_root / f"{name}.cfg"
        case_dir = out_root / name
        cfg.write_text(text.format(data=data, out=case_dir), encoding="utf-8")
        argv = [command, str(cfg), "--out", str(case_dir)]
        for item in overrides:
            argv += ["--set", item]
        print(name, digest(argv, out_root, case_dir), flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main_digests(Path(sys.argv[1]))
