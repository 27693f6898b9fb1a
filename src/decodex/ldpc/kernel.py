"""Build and load the compiled layered min-sum kernel (``minsum.c``).

The system C compiler (``cc``) builds the kernel once per source and flag
set into ``_build/`` next to this module.  The file is named by the SHA-256
of the source and the flags, and written through a temporary file that is
renamed into place, so concurrent processes never load a half-written
library; a new build removes the others.  Each process resolves the kernel
once, and its threads share it.
Without a compiler, or when the build fails, ``minsum_kernel`` logs one
warning and returns None, and the decoder runs its numpy reference.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from .basegraph import ALL_LIFTING_SIZES, MAX_ROW_DEGREE

log = logging.getLogger(__name__)

# -O3: the syndrome check loops over the zc lanes, a run-time trip count, and
# gcc 12's -O2 cost model does not vectorize such loops.  No -march=native: a
# cached build must run on any host of the architecture.  On x86-64 with glibc
# the one build carries an AVX2 clone and a portable default clone, and the
# loader picks one (minsum.c); elsewhere there is no ifunc, so no clones.
# The kernel updates a layer LANE_BLOCK lanes at a time, and its message rows
# are zc rounded up to whole blocks.
LANE_BLOCK = 16
CFLAGS = ("-O3", "-shared", "-fPIC", f"-DMAX_DEGREE={MAX_ROW_DEGREE}",
          f"-DMAX_ZC={max(ALL_LIFTING_SIZES)}", f"-DLANE_BLOCK={LANE_BLOCK}")
CACHE_DIR = Path(__file__).resolve().parent / "_build"


def _build(cc: str) -> Path:
    """Compile minsum.c unless a build of this source and these flags exists."""
    source = resources.files(__package__).joinpath("minsum.c").read_bytes()
    key = hashlib.sha256(source + "\0".join(CFLAGS).encode()).hexdigest()
    lib = CACHE_DIR / f"minsum-{key[:16]}.so"
    if lib.exists():
        return lib
    CACHE_DIR.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=CACHE_DIR, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([cc, *CFLAGS, "-x", "c", "-", "-o", tmp], input=source,
                       capture_output=True, check=True)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # Remove the builds of other sources or flags.  A process that has one
    # loaded keeps its mapping, and a build still in flight is a *.tmp.
    for stale in CACHE_DIR.glob("minsum-*.so"):
        if stale != lib:
            stale.unlink(missing_ok=True)
    return lib


@functools.cache
def minsum_kernel():
    """The compiled ``minsum_decode`` function, or None without a working
    C compiler."""
    cc = shutil.which("cc")
    if cc is None:
        log.warning("no C compiler (cc) on PATH; LDPC decoding runs the numpy reference")
        return None
    try:
        fn = ctypes.CDLL(str(_build(cc))).minsum_decode
    except subprocess.CalledProcessError as exc:
        log.warning("building the min-sum kernel failed; LDPC decoding runs the numpy "
                    "reference. %s said:\n%s", cc, exc.stderr.decode(errors="replace"))
        return None
    except OSError as exc:
        log.warning("cannot build or load the min-sum kernel (%s); LDPC decoding runs "
                    "the numpy reference", exc)
        return None
    i32 = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")  # checks dtype and layout
    i16 = np.ctypeslib.ndpointer(np.int16, flags="C_CONTIGUOUS")
    fn.argtypes = [i16, i16, i32, i32] + [ctypes.c_int] * 5 + [ctypes.POINTER(ctypes.c_int)]
    fn.restype = ctypes.c_int
    return fn
