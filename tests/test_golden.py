"""Golden outputs: each shipped config, run with its README seed, must write
byte-identical CSV and JSON files.

The table below holds the sha256 of every CSV and JSON file each command
writes.  It is the "same behaviour" proof for refactors and speed-ups: a
change that moves any hash changed what the lab reports.  To regenerate it
(only when an output change is intended), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py

and paste the printed table over GOLDEN.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from suspshift.cli import main

ROOT = Path(__file__).resolve().parent.parent

# command -> (shipped config, README seed)
RUNS = {
    "entropy": ("configs/golden_entropy.json", 0),
    "marker": ("configs/sturmian_marker.json", 0),
    "periodic": ("configs/periodic_golden.json", 0),
    "recode-dex": ("configs/two_valued_sturmian.json", 5),
    "recode-dep": ("configs/marked_binary_sturmian.json", 5),
    "generator-roundtrip": ("configs/roundtrip.json", 7),
    "kac-check": ("configs/kac_fullshift.json", 11),
    "ocap": ("configs/ocap_fullshift.json", 3),
    "abramov-check": ("configs/abramov_golden.json", 0),
    "induced-check": ("configs/induced_golden.json", 0),
}

GOLDEN = {
    'abramov-check': {
        'abramov.csv':
            'f3c079a4b3fd3a3cbd1905e1a3bc3b7dd118a16df7395401675bc0d14f64c562',
    },
    'entropy': {
        'block_entropy.csv':
            '97c6c16e525ea9ad66f848c90f81fb595ef4b7d911c5a7b34cd10fa5e98e0f2a',
        'entropy.csv':
            '4a5de2edfb92ff8d0adda76764dd3996b8b636c33037ad66430ce0f92edced72',
    },
    'generator-roundtrip': {
        'roundtrip.csv':
            'ce47e12431c4f5bd9730c68d4600a64e72cf717fb74b476b4fa66cd2835dc5f9',
    },
    'induced-check': {
        'induced.csv':
            '432b033b7db53dcb48401abc7a964b05cbf3926d283e00eea7cce825e37bc0dd',
    },
    'kac-check': {
        'kac.csv':
            '6c6e227bba20d4ce5868a64ea2a09b7489aac596f6abbc54fd0c6f30ec9d47ef',
        'return_spectra.csv':
            'a0309828ea630acc4a318d9b066872439df26aeb9998f1aa0fcd60ef6120acad',
    },
    'marker': {
        'marker.json':
            '59b260fb1c38c55f44617520473dd7357d609dedea19fbade759af79148ba8c4',
        'marker_gaps.csv':
            '0cb0af1f2ba48087d111112c55af3eab44c2411c398bb019f1c851fdcfb90b12',
    },
    'ocap': {
        'ocap.csv':
            'dbe7073a3b4a870ca1ecfba549539b20600a83b026f45c5d282b9aea835af344',
    },
    'periodic': {
        'periodic_census.csv':
            'c9a2212bee3f4031e371a3ef00e3fb964990772120292edfbe76aaebd304898a',
        'periodic_growth.csv':
            '099a0067063c88c2daa23db2d8aaeef1172c39bda3747bf5762e666c215d6c76',
    },
    'recode-dep': {
        'marked_binary_census.csv':
            'd67e8a65d97df6813e54287f6e588f6a22f6fc8e345d7713b82c796aa5454558',
        'marked_binary_recoded_flow.json':
            '75b25e82df7f15e9d464d1b57d1b7334c579eaf66714214f4a3ac628deede75a',
        'marked_binary_report.json':
            '960a78d27dbb7e20ec255021eabbd778cea9799e09f84bb2c83563f7fbca2c51',
    },
    'recode-dex': {
        'two_valued_census.csv':
            '0d918567610430c0269daf51d566488051328771398b38cb1b4a9f9f2a623889',
        'two_valued_recoded_flow.json':
            'f09ccdbc2e46ea7015fa3a2ee645b10119429b0b62edd3ae65762d47775ff672',
        'two_valued_report.json':
            '1c82bcbf5c3f2378efea2c02faa86a4c433b207d1652011c00f811e7e2435e71',
    },
}


def run_outputs(command: str, out: Path) -> dict:
    """Run one command on its shipped config; sha256 of each file written."""
    config, seed = RUNS[command]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(ROOT / config), "--seed", str(seed),
                     "--out", str(out)])
    assert code == 0, f"{command} exited with {code}"
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.suffix in (".csv", ".json")
    }


@pytest.mark.parametrize("command", sorted(RUNS))
def test_golden_outputs(command, tmp_path):
    assert run_outputs(command, tmp_path) == GOLDEN[command]


if __name__ == "__main__":
    import tempfile

    print("GOLDEN = {")
    for command in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            hashes = run_outputs(command, Path(tmp))
        print(f"    {command!r}: {{")
        for name, digest in hashes.items():
            print(f"        {name!r}:")
            print(f"            {digest!r},")
        print("    },")
    print("}")
