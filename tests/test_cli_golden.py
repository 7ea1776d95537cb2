"""Golden bytes of the command line: sha256 of (exit code, stdout, stderr,
warnings) for every subcommand in csv and json, every ``--help`` page and
the common invalid inputs.

A refactor of the CLI or of the kernels behind it must leave every digest
unchanged.  Printed floats depend on the numpy/scipy builds and help pages
on the argparse of the Python release, so those cases are compared only
under the versions they were recorded with; pdmosc's own error messages
are compared everywhere.  To print the digests of the current tree (for
example after a deliberate output change):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

import numpy as np
import pytest
import scipy

from pdmosc import cli

#: Python, numpy and scipy versions the digests were recorded with
RECORDED_VERSIONS = ("3.11", "2.4.6", "1.17.1")

REQUIRED_FLAGS = {
    "trajectory": ["--lambda", "1"],
    "lambda-map": [],
    "phase-portrait": ["--lambda", "1"],
    "wkb": [],
    "spectrum": [],
    "eigenfunction": ["--n", "1", "--E", "1"],
    "box-spectrum": ["--n", "1"],
    "verify": [],
}

#: pdmosc's own one-line error messages, independent of library versions
MESSAGE_CASES = {
    "missing-lambda": ["trajectory"],
    "malformed-t": ["trajectory", "--lambda", "1", "--t", "0:1"],
    "alpha1-nan": ["spectrum", "--alpha1", "nan"],
    "checks-nope": ["verify", "--checks", "nope"],
    "malformed-config": ["trajectory", "--config", "bad.cfg"],
}

CASES = {
    f"{sub}-{fmt}": [sub, *flags, "--format", fmt]
    for sub, flags in REQUIRED_FLAGS.items()
    for fmt in ("csv", "json")
}
CASES.update({f"{sub}-help": [sub, "--help"] for sub in REQUIRED_FLAGS})
CASES.update(MESSAGE_CASES)
CASES.update(
    {
        "help": ["--help"],
        "unknown-flag": ["trajectory", "--frobnicate"],
        "config-run": ["trajectory", "--config", "run.cfg"],
        # the norms' order 81 is past J's domain (order <= 50): box-spectrum refuses it ...
        "box-spectrum-n80": ["box-spectrum", "--n", "80", "--n-zeros", "1"],
        # ... and eigenfunction refuses J_80 the same way, before computing
        "eigenfunction-n80": ["eigenfunction", "--n", "80", "--E", "1", "--x", "0.5:1:0.25"],
    }
)

#: large outputs, so a change to the array kernels or to row assembly shows in
#: thousands of rows: the lambda grid crosses 0 and the window holds the vertex
LARGE_CASES = {
    "lambda-map-large": ["lambda-map", "--count", "20001", "--lambda-min=-3", "--lambda-max", "3",
                         "--c1", "0.37", "--c2", "1.3", "--window=-4:7"],
    "lambda-map-large-reversed": ["lambda-map", "--count", "20001", "--lambda-min=-3",
                                  "--lambda-max", "3", "--c1", "0.37", "--c2", "1.3",
                                  "--window=7:-4"],
    "wkb-large": ["wkb", "--n-max", "20000", "--hbar", "0.37", "--turning-point", "5"],
    "spectrum-large": ["spectrum", "--n-max", "20000", "--alpha1", "0.3", "--gamma1=-0.7",
                       "--hbar", "0.37"],
    "phase-portrait-large": ["phase-portrait", "--lambda", "1.3", "--energies", "0.1,0.5,2,7",
                             "--points", "5001"],
}
CASES.update(
    {f"{name}-{fmt}": [*argv, "--format", fmt] for name, argv in LARGE_CASES.items()
     for fmt in ("csv", "json")}
)

CONFIG_FILES = {
    "run.cfg": "# sample config\nlam = 1\nc2 = -5\nt = 0:10:5\n",
    "bad.cfg": "this is not a key value pair\n",
}

#: sha256 per case, recorded under RECORDED_VERSIONS
DIGESTS = {
    "alpha1-nan": "4ca72f8246013a5ffb06d7f68201114c86f8f8d4549afb09121bafd750908cf6",
    "box-spectrum-csv": "68f7ec10e0f5c9bfdec97509da7a23c2ede96fdafca1242b9c3d2d54c1d08ab4",
    "box-spectrum-help": "7be9b30ded889b9e150ed657502d9dc59472695f75ecfde0b4607e321dd2d6a6",
    "box-spectrum-json": "88d4cf5294a7c3ab99f8cec8cd994a9a144bf43647df492b57cc02c300c7f323",
    "box-spectrum-n80": "0cf7d97661d3970f24a2492a8b4e16ba0527516e516d5fb5ba3cb46951654366",
    "checks-nope": "a1dbf759664e3dbc70c49f7a69d40fd11a7355ff961769eea76ba150d5bfd639",
    "config-run": "4bc3e5c878fc993cb32e3bbaceba3ec1e6d71a904a35f7a8ba7bc6b8199557d3",
    "eigenfunction-csv": "3003a62397de2c2fa8bc5f55f4ee0394f8025c4bf0f007496fab1557f889a02e",
    "eigenfunction-help": "3a871c02fea2aba740dd458ffbbedb4576c960d0854bf01361ee5fa87d59ebb4",
    "eigenfunction-json": "2f54963418bc688bc20e0e3b362108052216ae7bcb3487eb626a9f66e54c7459",
    "eigenfunction-n80": "c9ed9a1c4ee8f9105fea59a4fda40b35665cd5f70d79849b785df6613d28aed0",
    "help": "cb9d32bfd8d33018660d900ec0915f2b39ebde34d36f26c18fda3fb8e191036d",
    "lambda-map-csv": "9349a391fe8756e4b6ddaf8e8b0dfc374bfbe5a006e09e1ae1a46d0385065979",
    "lambda-map-help": "ff5e0a0c1562085cf332c3a13c735d5611a9d465e7c5bc5ea54799639c3cb642",
    "lambda-map-json": "9344422548e470b6a7ea57efc351dccd459e14d666136b990fceeaaa50ab9992",
    "lambda-map-large-csv": "0655e8f862044568b6fb429208fe3d575ac92aa1b25ed260ac4556a556372d58",
    "lambda-map-large-json": "49f88c0b549e93109af5f5ff85c82bc31d9cbcf7adffebfe544874c251c425e7",
    "lambda-map-large-reversed-csv": "0655e8f862044568b6fb429208fe3d575ac92aa1b25ed260ac4556a556372d58",
    "lambda-map-large-reversed-json": "49f88c0b549e93109af5f5ff85c82bc31d9cbcf7adffebfe544874c251c425e7",
    "malformed-config": "ac0d760be3763ec14ee9414b0c47e26e870efd29377ca0812757c815a94a927d",
    "malformed-t": "ce392124327cbdd9bdd42792c50a9750e37b2c6311d50ab2b0398427cdd69e12",
    "missing-lambda": "e49d7486e751e678c8f81dfcc933583b86de946464f0552ef310d7d2534a373c",
    "phase-portrait-csv": "cd5c55885ff2bf1be01fec19dde8f11537f6073d75ca557f8b648e89df599fae",
    "phase-portrait-help": "421002797eae5776e27649afafa2c753b760768b43641cb35545d1821c019d36",
    "phase-portrait-json": "6fc10a25b8c78fce9fc85fbcf876b7e3d9a70432bc50e5786f51f93a576971a4",
    "phase-portrait-large-csv": "47d68a5aeacd728df1f41fed01f42d18e869496d3f4af5ee573201fdd3d69b2f",
    "phase-portrait-large-json": "35d250b17c69e974e87359a9a7e2a65d1a88b7ca49722871d993dd1a41ce86e3",
    "spectrum-csv": "e0945f41e3f55fc91fbecc3e68a9a5dd35fd5d7569dcfafcb0a6825a81099693",
    "spectrum-help": "d1c40f828be6fbc143cf206c7ced24f579f78f76eb4201dbce26243cce547f6c",
    "spectrum-json": "7aae3ef92f181b24fd54b5a22f0c29b2e48b1ccbe87de317159b67930a36b062",
    "spectrum-large-csv": "5984ee5b768e977cccbd7df5f6ce59c9415dbd3b8ace6bec52c360c84f3b6607",
    "spectrum-large-json": "19e64a4bff3237b38f51a2ed3e321c472c62b7ef2d21fa1d44362512123b6e8e",
    "trajectory-csv": "a3837a644e29cc7ec22461cc1fc9b17f72e1b349bd2bfc3fcaa84770d323010a",
    "trajectory-help": "ee7816d4788acb1bc64b59269fc3977bb425dc2438499cfde555b1bdc22da1d9",
    "trajectory-json": "5449416d797d741795746461921ab9ee808b790d5686f4a30ede4b16a2e49110",
    "unknown-flag": "d4cc434d2e5fcb8d504451e7a348b6c0d81ec3232ca6e4c4c4a26e4da6f11de1",
    "verify-csv": "00c44f542dbf8a0c336a0171994968bb3d3bebdfc72684a25f48695c398ac23d",
    "verify-help": "9ffdc30e9db42414c36db032f2e896dd393c0d646edf4662e100a3242da3bda6",
    "verify-json": "91bdda7f9a95d021dfe7f0d3daabacd5f3d3fc0755ca686415b1b96e151f2c38",
    "wkb-csv": "a6bfe329f4640063cb21be66597f457366db3a11667e1ba2fd519b5bee5c5f0d",
    "wkb-help": "b1164e15ce81b6c40660b0e49b3492d1abc9e3c973676bcc339c84ff617da3c4",
    "wkb-json": "f449af246afc82a92c17c4601d6af5f3b7fa97ef37b65731a69428334297d2a0",
    "wkb-large-csv": "318496580d9d5f8e0a51734482287d000d9b5d6484f66099b6fcf44b52dcb1b7",
    "wkb-large-json": "3cc6704ed2b85ea85fdf6a81188a8790d7621422d9e1e16243bc53e75c7b695d",
}


def digest(argv) -> str:
    """sha256 of what ``pdmosc <argv>`` gives, run in-process from a
    directory holding CONFIG_FILES with an 80-column terminal."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
    record = [code, out.getvalue(), err.getvalue(),
              [f"{w.category.__name__}: {w.message}" for w in caught]]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def write_config_files(directory) -> None:
    for name, text in CONFIG_FILES.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)


def current_versions() -> tuple[str, str, str]:
    return (f"{sys.version_info[0]}.{sys.version_info[1]}", np.__version__, scipy.__version__)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_match_recorded_digest(name, tmp_path, monkeypatch):
    if name not in MESSAGE_CASES and current_versions() != RECORDED_VERSIONS:
        pytest.skip(f"digest recorded under Python/numpy/scipy {RECORDED_VERSIONS}")
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    write_config_files(tmp_path)
    assert digest(CASES[name]) == DIGESTS[name]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        write_config_files(tmp)
        os.chdir(tmp)
        print("versions:", current_versions())
        for name in sorted(CASES):
            print(f'    "{name}": "{digest(CASES[name])}",')
