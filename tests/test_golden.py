"""Byte-for-byte regression of the emulator's virtual-time outputs.

Each case runs one command through ``cli_main`` and compares the sha256 of
what it prints. A change to any grant, contention spike or completion
order changes a digest. When an output is meant to change, regenerate the
digests by running the same argv and taking the printed digest from the
failure message (``pytest tests/test_golden.py``), and say why in the
change log.
"""
import hashlib

import pytest

from vranphy.cli import cli_main

GOLDEN = {
    ("--format", "json", "deploy", "--profile", "ep-rfsoc",
     "--instances", "7", "--slots", "2000"):
        "66c690ae31169c8abf0bdd9cb0741025a17bec3dc45174a1e6e63b4f179a90f9",
    ("--format", "json", "deploy", "--profile", "vranp",
     "--instances", "3", "--slots", "2000"):
        "9e740d3dca64953ee99be9c91f67c6b424e96c532a4c4ca7099915e8d88974a9",
    ("--format", "json", "deploy", "--profile", "hpp",
     "--instances", "4", "--slots", "2000"):
        "7890f67524c9268d751344aae5d8beacb649baa6708f5bb8fe1c31f4668f3537",
    ("--format", "csv", "deploy", "--profile", "ep-rfsoc",
     "--instances", "7", "--slots", "2000"):
        "e2d0390ea95364a0b5038cf666f937cee3089c1ab7a77cf80c99ef72ccca8cd0",
    ("bench-interfaces", "--backend", "t2-emulated"):
        "443f49a1ac83fcc5a9c986bb0ad99cdd5092f0c58569b542cfd1cb0940606f05",
    ("bench-interfaces", "--backend", "vran-boost-emulated"):
        "0cbb97f149aa3baa1460aed669dd2dd3201c102ae1c89cbabf9cf08a52e9fa36",
    ("bench-interfaces", "--backend", "hpp-sw-emulated"):
        "edd8b90077257a8dd1f14042d773fc3dbb89e6398892bb19e50034d95815eff5",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids="_".join)
def test_output_matches_its_recorded_digest(argv, capsys):
    cli_main(["--seed", "0", *argv])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[argv], f"{' '.join(argv)}: {digest}"
