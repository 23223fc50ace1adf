"""The README's Python examples run as written and print what they say."""

import contextlib
import io
from pathlib import Path

from floquet_forge import preset

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_python_blocks_run_in_order_as_written():
    blocks = [part.split("```")[0] for part in README.read_text().split("```python\n")[1:]]
    assert len(blocks) == 2
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    # the library tour prints the order-1 error, O(omega^-2) at omega = 20
    assert 0 < float(out.getvalue()) < 1e-2
    # the probe's comment: 1.45 here, 0.0 on "triangular"
    probe, drive = namespace["magnus_commutator_probe"], namespace["drive"]
    assert round(namespace["probe"], 2) == 1.45
    assert probe(preset("triangular"), drive, 0.1, 0.2, (4, 4)) == 0.0
