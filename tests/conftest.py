"""Puts `src/` on the path of child interpreters too; `pythonpath` in
pyproject.toml covers only this process.

Tests drive the CLI in process through `cli_cases.in_process`.  These start
`python -m mdconv.cli` (`cli_cases.run_subprocess`) or `python -c` instead,
because a fresh interpreter or a kill timeout is what they test:
- `test_acceptance.py` criterion 8: one `construct -o` and one `distance`
  under each of PYTHONHASHSEED 0 and 1, stdout and the written file compared;
- `test_cli.py::test_python_m_entry_point_exits_with_mains_code`: the
  `__main__` line passes `main`'s return value to the exit status;
- `test_cli.py::test_construct_huge_prime_exit_2_fast` and
  `test_construct_large_extension_degree_fast`: killed after 10 s if a
  size check comes too late;
- `test_distance.py::test_import_does_not_load_numpy`: what importing
  `mdconv` loads.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
