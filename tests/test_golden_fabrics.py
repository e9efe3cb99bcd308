"""Golden fabrics: COFFE sizing and characterization held bit-identical.

``tests/data/golden_fabrics.json`` holds, per fabric case and resource,
SHA-256 digests over the characterized numbers: the delay and leakage
arrays (their raw bytes) and ``repr`` of the area, the base dynamic
power and the sorted transistor sizes.  The frequency gains (Figs. 6/7)
and the energy mode are both computed from these numbers, so a speed
change to the COFFE layer must reproduce them exactly.

The file is a recording, not a specification: regenerate it only for a
declared change to the device models or the sizing flow::

    PYTHONPATH=src python tests/test_golden_fabrics.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.arch.params import ArchParams
from repro.coffe.fabric import Fabric, build_fabric

GOLDEN_FABRICS = Path(__file__).parent / "data" / "golden_fabrics.json"

CASES = {
    # name: (arch, design corner in Celsius)
    "table1_d0": (ArchParams(), 0.0),
    "table1_d25": (ArchParams(), 25.0),
    "table1_d70": (ArchParams(), 70.0),
    "tracks20_d25": (ArchParams(routed_channel_tracks=20), 25.0),
    "lut4_d25": (ArchParams(lut_size=4), 25.0),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fabric_digests(fabric: Fabric) -> Dict[str, Dict[str, str]]:
    """Per resource: digests of delay, leakage and the scalar numbers."""
    return {
        name: {
            "delay_s": _sha256(char.delay_s.tobytes()),
            "leakage_w": _sha256(char.leakage_w.tobytes()),
            "scalars": _sha256(repr((
                char.area_um2, char.pdyn_w_base, sorted(char.sizes.items()),
            )).encode("utf-8")),
        }
        for name, char in sorted(fabric.resources.items())
    }


def replay(case: str) -> Dict[str, Dict[str, str]]:
    arch, corner = CASES[case]
    return fabric_digests(build_fabric(corner, arch))


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, Dict[str, str]]]:
    return json.loads(GOLDEN_FABRICS.read_text(encoding="utf-8"))["cases"]


def test_cases_match_recording(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_fabric_bit_identical(golden, case):
    assert replay(case) == golden[case]


def test_routed_width_changes_no_fabric_number(golden):
    """Recorded when every arch was characterized from scratch: the routed
    channel width is outside the circuits, so the numbers agree."""
    assert golden["tracks20_d25"] == golden["table1_d25"]


def record() -> None:
    cases = {case: replay(case) for case in sorted(CASES)}
    GOLDEN_FABRICS.write_text(
        json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
