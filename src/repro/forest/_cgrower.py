"""Build and load the optional C tree grower and packed traversal kernel.

The kernel (``_grower.c``) is a plain shared library — no Python or numpy
headers — compiled on demand with whatever C compiler the host provides
and driven through :mod:`ctypes`.  Everything is best-effort: missing
compiler, failed build, unwritable build directories, the
``REPRO_PURE_NUMPY`` environment variable, or a replica check that
disagrees with the installed numpy all make :func:`load` return ``None``,
and tree growth falls back to the reference grower (bit-identical, just
slower).

The grower replicates two numpy internals bit for bit:
``Generator.choice(d, m, replace=False)`` and ``np.add.reduce``'s
pairwise summation.  :func:`load` checks both replicas against numpy on a
small fixed grid before handing out the library, so a numpy release that
changes either algorithm costs speed, never results.

Build artefacts are cached under ``_cbuild/`` next to this file (or the
system temp directory when the package is not writable), keyed by a hash
of the C source and compiler flags so stale libraries are never reused.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["load", "replicas_match", "bitgen_pointers"]

_SOURCE = Path(__file__).with_name("_grower.c")

#: -ffp-contract=off is load-bearing: FMA contraction would fuse the
#: kernel's multiply/add chains into differently-rounded operations and
#: break bit-identity with the numpy reference.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
#: Linked after the source: the gain test calls libm ``pow``.
_LDFLAGS = ("-lm",)

_lib: "ctypes.CDLL | None" = None
_attempted = False


def _configure(lib: ctypes.CDLL) -> None:
    ip = ctypes.c_int64
    ptr = ctypes.c_void_p
    lib.repro_grow_tree.restype = ip
    lib.repro_grow_tree.argtypes = [
        ptr,                 # XT
        ptr,                 # y
        ip, ip, ip,          # n, d, m
        ptr,                 # order
        ip, ip, ip,          # min_samples_leaf, min_samples_split, max_depth
        ptr, ptr,            # next_uint32, bit generator state
        ptr, ptr, ptr, ptr,  # feature, threshold, left, right
        ptr, ptr, ptr, ptr,  # value, variance, count, impurity
    ]
    lib.repro_choice.restype = None
    lib.repro_choice.argtypes = [ptr, ptr, ip, ip, ptr, ptr]
    lib.repro_pairwise_sum.restype = ctypes.c_double
    lib.repro_pairwise_sum.argtypes = [ptr, ip]
    lib.repro_traverse.restype = None
    lib.repro_traverse.argtypes = [
        ptr,  # feature
        ptr,  # threshold
        ptr,  # left
        ptr,  # right
        ptr,  # X
        ip,   # n_rows
        ip,   # d
        ptr,  # roots
        ip,   # T
        ptr,  # out
    ]


def bitgen_pointers(rng: np.random.Generator) -> "tuple[int, int]":
    """``(next_uint32, state)`` raw pointers of ``rng``'s bit generator."""
    iface = rng.bit_generator.ctypes
    return ctypes.cast(iface.next_uint32, ctypes.c_void_p).value, iface.state_address


def replicas_match(lib: ctypes.CDLL) -> bool:
    """Do ``repro_choice`` and ``repro_pairwise_sum`` agree with numpy?

    Draws ``choice(d, m, replace=False)`` for every ``1 <= m <= d <= 12``
    from two identically seeded generators, one through numpy and one
    through the replica, and sums arrays of lengths around every block
    boundary of numpy's pairwise summation with both.
    """
    ref = np.random.default_rng(20200518)
    rep = np.random.default_rng(20200518)
    nxt, state = bitgen_pointers(rep)
    out = np.empty(12, dtype=np.int64)
    work = np.zeros(12, dtype=np.int64)
    for d in range(1, 13):
        for m in range(1, d + 1):
            want = ref.choice(d, size=m, replace=False)
            lib.repro_choice(nxt, state, d, m, out.ctypes.data, work.ctypes.data)
            if not np.array_equal(want, out[:m]):
                return False
    if ref.bit_generator.state != rep.bit_generator.state:
        return False
    values = np.random.default_rng(7).normal(size=600) * 1e3
    arrays = [values[:n] for n in (*range(1, 20), 127, 128, 129, 255, 256, 257, 600)]
    arrays.append(np.full(9, -0.0))  # the sign of a zero sum
    for a in arrays:
        got = np.float64(lib.repro_pairwise_sum(a.ctypes.data, len(a)))
        if got.tobytes() != np.add.reduce(a).tobytes():
            return False
    return True


def _build(so_path: Path) -> None:
    so_path.parent.mkdir(parents=True, exist_ok=True)
    # Unique temp name + atomic rename so concurrent builders cannot load a
    # half-written library.
    tmp = so_path.with_name(f".{so_path.name}.{os.getpid()}.tmp")
    for compiler in ("cc", "gcc", "clang"):
        try:
            subprocess.run(
                [compiler, *_CFLAGS, "-o", str(tmp), str(_SOURCE), *_LDFLAGS],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp, so_path)
            return
        except (OSError, subprocess.SubprocessError):
            tmp.unlink(missing_ok=True)
            continue
    raise RuntimeError("no working C compiler found")


def load() -> "ctypes.CDLL | None":
    """Return the configured kernel library, or ``None`` when unavailable."""
    global _lib, _attempted
    if _attempted:
        return _lib
    # repro: allow[SPAWN001] per-process lazy-load latch; each process probes the compiler once
    _attempted = True
    if os.environ.get("REPRO_PURE_NUMPY"):
        return None
    if ctypes.sizeof(ctypes.c_void_p) != 8:
        return None  # the kernel assumes LP64 (numpy intp == int64)
    try:
        source = _SOURCE.read_text()
    except OSError:
        return None
    flags = " ".join(_CFLAGS + _LDFLAGS)
    tag = hashlib.sha256((source + flags).encode()).hexdigest()[:16]
    candidates = (
        Path(__file__).parent / "_cbuild",
        Path(tempfile.gettempdir()) / "repro-cbuild",
    )
    for base in candidates:
        so_path = base / f"grower-{tag}.so"
        try:
            if not so_path.exists():
                _build(so_path)
            lib = ctypes.CDLL(str(so_path))
            _configure(lib)
        # repro: allow[EXC001] fall through to the next build candidate; total failure means the reference grower
        except Exception:
            continue
        if not replicas_match(lib):
            return None
        # repro: allow[SPAWN001] per-process ctypes handle; processes never share it
        _lib = lib
        return _lib
    return None
