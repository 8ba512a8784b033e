"""The whole command-line recipe on a tiny dataset, as one transcript.

    python tests/cli_recipe.py <src dir> <new work dir>

runs every subcommand of the ``shapesem`` package found under ``<src dir>``
in-process at one BLAS thread: simulate, preprocess, the three train
commands, ``evaluate --metric recon`` before reconstruct (it renders the
test records itself), reconstruct, evaluate with both metrics (recon now
scores the stack reconstruct stored), the three ablations and report, then three runs that must fail (a mode the checkpoint contradicts, a
missing --out, and report on a directory that does not exist).  It prints
``<sha256> <path>`` for every file left under the work dir, then each
command with its exit code, its stdout and its stderr (each line after
``! ``), the work dir written as ``<out>``.  Two source trees write the same
bytes and behave alike if their transcripts ``diff`` clean.  The three train
commands, reconstruct and ``evaluate --metric recon`` are the byte gate's
recipe.  ``ablate roi`` runs at the default ``sem_*`` keys.

``tests/test_cli.py`` imports the steps and sizes from here.
"""

import contextlib
import hashlib
import io
import os
import sys

TINY_SIM = ["--set", "image_size=16", "--set", "categories=2",
            "--set", "n_train=8", "--set", "n_test=4", "--set", "test_trials=1"]
TINY_MODELS = ["--set", "gan_epochs=2", "--set", "gan_decay_start=1",
               "--set", "gan_batch=4", "--set", "gan_base_channels=2",
               "--set", "sem_hidden1=8",
               "--set", "sem_hidden2=4", "--set", "sem_epochs=2"]


def steps(root):
    """(expected exit code, argv) of each recipe command, in order: the
    dataset goes to ``root``/ds, its averaged copy to avg, and the models,
    images and reports to art."""
    ds, avg, art = (os.path.join(root, d) for d in ("ds", "avg", "art"))
    data = ["--dataset", ds, "--out", art]
    train = ["--seed", "0", *data, *TINY_MODELS]
    return [
        (0, ["simulate", "--seed", "0", "--out", ds, *TINY_SIM]),
        (0, ["preprocess", "--dataset", ds, "--out", avg]),
        (0, ["train-shape", *train]),
        (0, ["train-semantic", *train]),
        (0, ["train-gan", *train]),
        (0, ["evaluate", "--metric", "recon", "--seed", "0", *data]),
        (0, ["reconstruct", *data]),
        (0, ["evaluate", "--metric", "recon", "--seed", "0", *data]),
        (0, ["evaluate", "--metric", "shape", "--seed", "0", *data]),
        (0, ["ablate", "roi", "--runs", "2", "--seed", "0", *data]),
        *((0, ["ablate", which, "--runs", "2", *train])
          for which in ("semantics", "augmentation")),
        (0, ["report", "--out", art]),
        (1, ["reconstruct", *data, "--set", "mode=no_semantics"]),
        (1, ["train-shape", "--seed", "0", "--dataset", ds]),
        (1, ["report", "--out", os.path.join(root, "typo")]),
    ]


def run(main, argv):
    """(exit code, stdout, stderr) of one in-process ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def snapshot(root):
    """Relative path -> sha256 of every file under ``root``, and -> None of
    every directory."""
    found = {}
    for dirpath, dirs, files in os.walk(root):
        for d in dirs:
            found[os.path.relpath(os.path.join(dirpath, d), root)] = None
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return found


def transcript(main, root):
    """The listing of ``root`` after the recipe ran there through ``main``,
    then every command with its outcome."""
    root = os.path.abspath(root)
    os.makedirs(root)
    log = []
    for _, argv in steps(root):
        code, out, err = run(main, argv)
        log += ["$ shapesem " + " ".join(argv), "exit %d" % code,
                *out.splitlines(), *("! " + line for line in err.splitlines())]
    lines = ["%s %s" % (digest or "directory", path)
             for path, digest in sorted(snapshot(root).items())]
    return "\n".join(lines + log).replace(root, "<out>")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.abspath(sys.argv[1]))
    from shapesem.cli import main  # numpy loads here, after the pin

    print(transcript(main, sys.argv[2]))
