"""The C kernel source compiles with no unused function and no
signed/unsigned comparison.

The shipped library builds with plain ``-O2``; this test also turns the two
warnings that catch a helper left dead and a signed/unsigned slip in the
walk's word arithmetic (``-Wunused-function``, ``-Wsign-compare``) into
errors, so either fails here instead of shipping. Only those two are
errors, so a warning that a newer compiler adds elsewhere does not fail
it. It compiles to an object file, not with ``-fsyntax-only``: GCC reports
an unused static function only when it compiles the unit. A host without
a compiler skips it.
"""

import subprocess

import pytest

from repro.cache.kernels import cnative


def test_kernel_source_compiles_without_warnings(tmp_path):
    compiler = cnative._compiler()
    if compiler is None:
        pytest.skip("no C compiler (cc/gcc/clang) on PATH")
    source = tmp_path / "kernels.c"
    source.write_text(cnative._SOURCE, encoding="utf-8")
    result = subprocess.run(
        [compiler, "-O2", "-Werror=unused-function", "-Werror=sign-compare",
         "-c", str(source), "-o", str(tmp_path / "kernels.o")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
