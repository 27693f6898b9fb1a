"""The compiled min-sum kernel against its numpy oracle, and how it is built.

The kernel (ldpc/minsum.c) must give the numpy reference's posteriors,
iteration count and convergence flag exactly, on every base graph and lifting
size.  Where it cannot be built the decoder falls back to the reference and
says so in one warning, and where a compiler exists the kernel must be the
path that runs.
"""

import dataclasses
import logging
import platform
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decodex.ldpc import (
    ALL_LIFTING_SIZES,
    BG_DIMS,
    CodeBlockParams,
    ConfigurationError,
    decode_layered_minsum,
    encode,
    expand_base_graph,
)
from decodex.ldpc import basegraph, kernel
from decodex.ldpc.decode import _compiled_sweeps, _reference_sweeps

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc)")


def _params(bg, zc):
    return CodeBlockParams(bg, zc, BG_DIMS[bg][2])


def _llrs(params, seed, magnitude, noise):
    """A random codeword's LLRs at ``magnitude`` plus uniform integer noise,
    saturated to int8."""
    rng = np.random.default_rng(seed)
    cw = encode(rng.integers(0, 2, params.k, dtype=np.uint8), params)
    clean = (1 - 2 * cw.astype(np.int32)) * magnitude
    return np.clip(clean + rng.integers(-noise, noise + 1, params.n_full), -128, 127).astype(np.int8)


@needs_cc
def test_kernel_is_active_when_a_compiler_is_present():
    assert kernel.minsum_kernel() is not None


@needs_cc
@settings(max_examples=60, deadline=None)
@given(
    bg=st.sampled_from([0, 1, 2]),
    zc=st.sampled_from(ALL_LIFTING_SIZES),
    seed=st.integers(0, 2**32 - 1),
    magnitude=st.integers(0, 127),
    noise=st.integers(0, 128),
    max_iterations=st.integers(1, 40),
    early_termination=st.booleans(),
    norm_factor=st.sampled_from([0.75, 0.5, 1.0, 0.8125]),
)
def test_kernel_equals_the_numpy_reference(
    bg, zc, seed, magnitude, noise, max_iterations, early_termination, norm_factor
):
    params = _params(bg, zc)
    pcm = expand_base_graph(params.bg, params.zc, params.set_index)
    llr = _llrs(params, seed, magnitude, noise)
    norm_q12 = int(norm_factor * 4096)
    compiled, reference = llr.astype(np.int32), llr.astype(np.int32)
    got = _compiled_sweeps(compiled, pcm, max_iterations, norm_q12, early_termination)
    want = _reference_sweeps(reference, pcm, max_iterations, norm_q12, early_termination)
    assert got == want
    assert np.array_equal(compiled, reference)


@needs_cc
@pytest.mark.parametrize("bg", [1, 2])
@pytest.mark.parametrize("pattern", ["all -128", "all +127", "alternating"])
def test_kernel_equals_the_reference_on_saturated_llrs(bg, pattern):
    """Saturated inputs drive the posteriors furthest towards the int16
    lanes' limits."""
    params = _params(bg, 384)
    pcm = expand_base_graph(params.bg, params.zc, params.set_index)
    llr = {
        "all -128": np.full(params.n_full, -128),
        "all +127": np.full(params.n_full, 127),
        "alternating": np.where(np.arange(params.n_full) % 2, -128, 127),
    }[pattern].astype(np.int32)
    compiled, reference = llr.copy(), llr.copy()
    got = _compiled_sweeps(compiled, pcm, 40, 3072, False)
    want = _reference_sweeps(reference, pcm, 40, 3072, False)
    assert got == want
    assert np.array_equal(compiled, reference)


_BOUNDARY_SHAPES = [(1, 384), (2, 16), (0, 4)]  # BG1 and BG2 at the extremes, the toy graph


@needs_cc
@pytest.mark.parametrize("bg, zc", _BOUNDARY_SHAPES, ids=["bg1-384", "bg2-16", "toy-4"])
@pytest.mark.parametrize("shift", ["0", "zc-1"])
def test_kernel_equals_the_reference_at_the_run_boundaries(bg, zc, shift):
    """With every shift 0 a circulant's second run is empty, and with every
    shift zc - 1 its first run is a single lane: the gather and scatter
    copies at their edges."""
    params = _params(bg, zc)
    pcm = expand_base_graph(params.bg, params.zc, params.set_index)
    edges = pcm.edges.copy()
    edges[:, 1] = 0 if shift == "0" else zc - 1
    pcm = dataclasses.replace(pcm, edges=edges)
    for seed, early_termination in ((1, True), (2, False)):
        llr = _llrs(params, seed, magnitude=6, noise=24).astype(np.int32)
        compiled, reference = llr.copy(), llr.copy()
        got = _compiled_sweeps(compiled, pcm, 20, 3072, early_termination)
        want = _reference_sweeps(reference, pcm, 20, 3072, early_termination)
        assert got == want
        assert np.array_equal(compiled, reference)


@pytest.fixture
def default_clone_only(monkeypatch, tmp_path_factory):
    """Loads, for one test, a build of minsum.c with -DMINSUM_NO_CLONES: the
    default clone's body alone, which the loader never picks from the usual
    build on an AVX2 host.  The tests share one cached build."""
    monkeypatch.setattr(kernel, "CFLAGS", kernel.CFLAGS + ("-DMINSUM_NO_CLONES",))
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path_factory.getbasetemp() / "no-clones")
    kernel.minsum_kernel.cache_clear()
    assert kernel.minsum_kernel() is not None
    assert len(list(kernel.CACHE_DIR.glob("minsum-*.so"))) == 1
    yield
    kernel.minsum_kernel.cache_clear()


@needs_cc
def test_default_clone_equals_the_numpy_reference(default_clone_only):
    test_kernel_equals_the_numpy_reference()


@needs_cc
def test_default_clone_equals_the_reference_on_saturated_llrs(default_clone_only):
    for bg in (1, 2):
        for pattern in ("all -128", "all +127", "alternating"):
            test_kernel_equals_the_reference_on_saturated_llrs(bg, pattern)


@needs_cc
def test_default_clone_equals_the_reference_at_the_run_boundaries(default_clone_only):
    for bg, zc in _BOUNDARY_SHAPES:
        for shift in ("0", "zc-1"):
            test_kernel_equals_the_reference_at_the_run_boundaries(bg, zc, shift)


@needs_cc
@pytest.mark.parametrize("macros", [(), ("-DMINSUM_NO_CLONES",)], ids=["clones", "no-clones"])
def test_kernel_source_compiles_without_warnings(tmp_path, macros):
    """Both clone configurations build under -Wall -Wextra -Werror, and the
    usual build carries an AVX2 clone wherever the loader can pick one."""
    lib = tmp_path / "minsum.so"
    built = subprocess.run(
        [shutil.which("cc"), *kernel.CFLAGS, "-Wall", "-Wextra", "-Werror", *macros,
         str(Path(kernel.__file__).with_name("minsum.c")), "-o", str(lib)],
        capture_output=True, text=True,
    )
    assert built.returncode == 0, built.stderr
    ifunc = platform.machine() == "x86_64" and platform.libc_ver()[0] == "glibc"
    assert (b"minsum_decode.avx2" in lib.read_bytes()) == (ifunc and not macros)


@pytest.mark.parametrize("bg", sorted(BG_DIMS))
def test_posteriors_fit_the_kernel_int16_lanes(bg):
    """A posterior is an int8 LLR plus one message of at most 127 per check
    on its column, so the largest column degree bounds it."""
    columns = [c for _, c in basegraph.get_base_graph(bg).entries]
    assert 128 + 127 * max(columns.count(c) for c in set(columns)) < 2**15


@pytest.mark.parametrize("failure", ["no-compiler", pytest.param("build-error", marks=needs_cc)])
def test_decoding_falls_back_to_the_reference_with_one_warning(
    monkeypatch, tmp_path, caplog, failure
):
    params = _params(2, 36)
    llr = _llrs(params, seed=3, magnitude=12, noise=20)
    expected = decode_layered_minsum(llr, params, max_iterations=8)
    if failure == "no-compiler":
        monkeypatch.setattr(kernel.shutil, "which", lambda name: None)
    else:
        monkeypatch.setattr(kernel, "CFLAGS", kernel.CFLAGS + ("-fno-such-option",))
        monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path)
    kernel.minsum_kernel.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger=kernel.__name__):
            results = [decode_layered_minsum(llr, params, max_iterations=8) for _ in range(2)]
            assert kernel.minsum_kernel() is None
    finally:
        monkeypatch.undo()
        kernel.minsum_kernel.cache_clear()
    for got in results:
        assert np.array_equal(got.bits, expected.bits)
        assert (got.iterations_used, got.converged) == (expected.iterations_used, expected.converged)
    assert len(caplog.records) == 1
    assert "numpy reference" in caplog.text
    if failure == "build-error":
        assert "no-such-option" in caplog.text  # the compiler's own message
        assert list(tmp_path.iterdir()) == []  # no half-written library left


@needs_cc
def test_build_is_cached_by_source_and_flags(monkeypatch, tmp_path):
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path)
    cc = shutil.which("cc")
    first = kernel._build(cc)
    built_at = first.stat().st_mtime_ns
    assert kernel._build(cc) == first
    assert first.stat().st_mtime_ns == built_at
    monkeypatch.setattr(kernel, "CFLAGS", kernel.CFLAGS + ("-DUNUSED_MACRO",))
    second = kernel._build(cc)
    assert second != first
    assert sorted(tmp_path.iterdir()) == [second]


def test_row_degree_above_the_kernel_scratch_is_rejected(monkeypatch):
    monkeypatch.setattr(basegraph, "MAX_ROW_DEGREE", 18)  # BG1's densest row has 19
    expand_base_graph.cache_clear()
    try:
        with pytest.raises(ConfigurationError, match="degree 19"):
            expand_base_graph(1, 64, 0)
        assert expand_base_graph(2, 64, 0).degrees.max() == 10
    finally:
        expand_base_graph.cache_clear()
