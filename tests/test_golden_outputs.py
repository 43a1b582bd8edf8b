"""The CLI documents of the benchmark's chains, byte for byte.

Each chain runs the README commands in-process, in order (later commands
read the files earlier ones wrote), and every JSON document it prints or
writes must equal the one stored under tests/data/golden/.  A change
that is meant to keep every output must leave this test passing as it
is; a change that is meant to alter an output regenerates the files

    PYTHONPATH=src python tests/test_golden_outputs.py

and shows the difference in its diff.
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

from triplepoints.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

K3_444 = "a1=-1,a2=-1,a3=-1,b1=0,b2=0,b3=0"
ELL_222 = "lambda=1,mu=1,nu=1,b1=1,b2=1,b3=1,b4=1,b5=1,b6=1,alpha=1"

# chain -> [(document name, argv, file written or None for stdout)];
# "{name}" in argv is the path of that chain's document
CHAINS = {
    "ten": [
        ("construct", ["construct", "--family", "sextic-ten-gf31"], True),
        ("certify", ["certify", "-i", "{construct}"], True),
        ("tangent-dim", ["tangent-dim", "-i", "{construct}"], False),
        ("cremona", ["cremona", "-i", "{construct}"], True),
    ],
    "k3-444": [
        ("construct", ["construct", "--family", "k3-444", "--field",
                       "GF:29", "--params", K3_444], True),
        ("certify", ["certify", "-i", "{construct}"], True),
        ("tangent-dim", ["tangent-dim", "-i", "{construct}"], False),
        ("construct-246", ["construct", "--family", "k3-246", "--base",
                           "{construct}", "--fundamental", "0,1,3,4"], True),
        ("certify-246", ["certify", "-i", "{construct-246}"], True),
        ("tangent-dim-246", ["tangent-dim", "-i", "{construct-246}"], False),
    ],
    "ell-222": [
        ("construct", ["construct", "--family", "ell-222", "--field", "GF:7",
                       "--params", ELL_222], True),
        ("certify", ["certify", "-i", "{construct}"], True),
        ("tangent-dim", ["tangent-dim", "-i", "{construct}"], False),
        ("construct-224-error", ["construct", "--family", "ell-224",
                                 "--base", "{construct}", "--fundamental",
                                 "0,1,2,3"], False),
    ],
    "k3-228": [
        ("construct", ["construct", "--family", "k3-228", "--field",
                       "GF:31", "--params", "lambda=3"], True),
        ("certify", ["certify", "-i", "{construct}"], True),
        ("tangent-dim", ["tangent-dim", "-i", "{construct}"], False),
    ],
    "septic-7": [
        ("construct-error", ["construct", "--family", "septic-s4", "--field",
                             "GF:7", "--params", "mu=1,nu=3"], False),
    ],
    "septic-101": [
        ("construct", ["construct", "--family", "septic-s4", "--field",
                       "GF:101", "--params", "mu=1,nu=2"], True),
        ("certify", ["certify", "-i", "{construct}"], True),
    ],
}


def run_chain(chain, workdir):
    """{document name: text} for one chain, run in workdir."""
    docs = {}
    paths = {name: str(Path(workdir) / f"{chain}-{name}.json")
             for name, _, _ in CHAINS[chain]}
    for name, argv, to_file in CHAINS[chain]:
        argv = [a.format(**paths) for a in argv]
        if to_file:
            argv += ["-o", paths[name]]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        assert code == (1 if name.endswith("error") else 0), (name, code)
        docs[name] = (Path(paths[name]).read_text() if to_file
                      else buf.getvalue())
    return docs


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_cli_documents_match_golden(chain, tmp_path):
    for name, text in run_chain(chain, tmp_path).items():
        golden = GOLDEN / f"{chain}-{name}.json"
        assert text == golden.read_text(), golden.name


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for chain in sorted(CHAINS):
            for name, text in run_chain(chain, tmp).items():
                (GOLDEN / f"{chain}-{name}.json").write_text(text)
    sys.exit(0)
