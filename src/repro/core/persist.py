"""Index persistence: the durable on-disk index formats.

Index construction (k-means + PQ training + encoding) dominates
engine-build time; deployments build once and serve many times. This
module serializes :class:`~repro.core.quantized.QuantizedIndexData`
(the integer, DPU-ready form — everything the engine needs besides
layout knobs, which are cheap to regenerate) to disk and back.

Two container formats:

* **v1** — a compressed ``.npz`` archive (the original format). Kept
  readable forever, but no longer written: every writer emits v2.
  Compression makes it impossible to memory-map, so v1 loads always
  materialize every array.
* **v2** — the ``DRIMIDX2`` binary format: an 8-byte magic, a u64
  little-endian header length, a JSON header (space-padded), then the
  raw array segments at 16-byte-aligned offsets. Every segment's
  offset/shape/dtype/crc32 lives in the header, so
  :func:`load_index` can rebuild zero-copy :func:`numpy.memmap` views
  with no per-shard materialization — the engine slices cluster ranges
  straight out of the mapping and publishes them into the shared-memory
  arena, extending the zero-copy data plane to cold start. v2 also
  carries what v1 cannot: tombstone masks (deleted rows), the cluster
  heat vector (so a reload reproduces the exact DPU layout), and an
  optional OPQ preprocessor.

The one blessed API is :meth:`repro.core.engine.DrimAnnEngine.save` /
``.load`` / ``.unload``; the functions here are the format layer under
it:

    save_index(quant, "index.drim", cluster_heat=heat)
    bundle = load_index_bundle("index.drim")     # mmap-backed views
    quant = load_index("index.drim")             # just the index

Cluster arrays are stored concatenated with offset tables rather than
as thousands of tiny members (per-member overhead is brutal at
nlist=2^16). Offsets and flat-array lengths are validated up front so
corrupt tables raise :class:`IndexFormatError` naming the path and
member instead of an ``IndexError`` deep inside a reshape.

Writes are **crash-safe**: the payload is staged to a temp file in the
target directory and atomically :func:`os.replace`\\ d into place, so
a crash mid-save leaves either the old index or none — never a
truncated one a serving node would then choke on.
:func:`set_crash_hook` exposes the two stage boundaries ("staged",
"replaced") to the fault-injection layer
(:mod:`repro.faults.disk`), which proves the guarantee under injected
crashes mid-compaction. Reads validate the magic/version header and
raise :class:`IndexFormatError` (with the offending path) on anything
corrupt, truncated, or foreign.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zipfile
import zlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.opq_preprocess import OpqPreprocessor
from repro.core.quantized import QuantizedIndexData

#: Version of the legacy ``.npz`` container (format v1).
FORMAT_VERSION = 1
_MAGIC = "drimann-quantized-index"

#: Version of the ``DRIMIDX2`` binary container.
FORMAT_VERSION_V2 = 2
_MAGIC_V2 = b"DRIMIDX2"
_V2_ALIGN = 16
_V2_PREFIX = 16  # 8-byte magic + u64 header length
_V2_HEADER_QUANTUM = 1024

#: Segment names every v2 file must carry.
_V2_REQUIRED_SEGMENTS = (
    "centroids",
    "codebooks",
    "cluster_offsets",
    "ids_flat",
    "codes_flat",
    "tombstones",
)


class IndexFormatError(ValueError):
    """The file is not a readable DRIM-ANN index archive."""


@dataclass
class IndexBundle:
    """Everything a v2 index file carries, beyond the index itself.

    ``cluster_heat`` (when present) is the heat vector the layout was
    generated from — reloading with it reproduces the exact shard
    layout, which is what makes cycle ledgers bit-identical across a
    save/load round trip. ``preprocessor`` restores the OPQ transform
    for engines built with ``use_opq``.
    """

    index: QuantizedIndexData
    cluster_heat: Optional[np.ndarray] = None
    preprocessor: Optional[OpqPreprocessor] = None
    version: int = FORMAT_VERSION_V2
    path: str = ""
    header: dict = field(default_factory=dict)
    # Per-cluster squared reconstruction radii (optional v2 segment;
    # None for files written before adaptive probing — the engine then
    # disables bound-based early termination instead of failing).
    cluster_radii: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# Crash-injection seam (repro.faults.disk)
# ---------------------------------------------------------------------------

_crash_hook: Optional[Callable[[str], None]] = None


def set_crash_hook(hook: Optional[Callable[[str], None]]) -> None:
    """Install (or clear, with ``None``) the atomic-write stage hook.

    The hook fires with ``"staged"`` after the temp file is written and
    fsynced but *before* the atomic rename, and with ``"replaced"``
    after the rename. Raising from the ``"staged"`` stage simulates a
    crash mid-save: the temp file is cleaned up and the previous index
    stays untouched. See :class:`repro.faults.disk.CrashPoint`.
    """
    global _crash_hook
    _crash_hook = hook


def _fire_crash_hook(stage: str) -> None:
    if _crash_hook is not None:
        _crash_hook(stage)


def _atomic_write(path: str, write: Callable[..., None]) -> None:
    """Stage ``write(f)`` to a temp file, fsync, and rename into place.

    The temp file lives in ``path``'s directory (same filesystem, so
    the final rename is atomic); a failure at any point before the
    rename unlinks the temp file and leaves ``path`` untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            write(f)
            f.flush()
            os.fsync(f.fileno())
        _fire_crash_hook("staged")
        os.replace(tmp_path, path)
    except BaseException:
        # Failed mid-stage: drop the temp file, leave `path` untouched.
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fire_crash_hook("replaced")


# ---------------------------------------------------------------------------
# Shared flat-layout helpers
# ---------------------------------------------------------------------------

def _flatten_index(
    index: QuantizedIndexData,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate per-cluster arrays: (offsets, ids, codes, tombstones)."""
    sizes = index.cluster_sizes()
    offsets = np.zeros(index.nlist + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    if index.num_points:
        ids_flat = np.concatenate(index.cluster_ids)
        codes_flat = np.concatenate(index.cluster_codes)
    else:
        ids_flat = np.empty(0, dtype=np.int64)
        codes_flat = np.empty(
            (0, index.num_subspaces),
            dtype=index.cluster_codes[0].dtype if index.nlist else np.uint8,
        )
    masks = index.tombstone_masks()
    if masks is None:
        tomb_flat = np.zeros(int(offsets[-1]), dtype=np.uint8)
    else:
        tomb_flat = (
            np.concatenate(masks).astype(np.uint8)
            if index.num_points
            else np.empty(0, dtype=np.uint8)
        )
    return offsets, ids_flat, codes_flat, tomb_flat


def _validate_flat_layout(
    path: str,
    offsets: np.ndarray,
    ids_flat: np.ndarray,
    codes_flat: np.ndarray,
    *,
    nlist: Optional[int] = None,
) -> None:
    """Reject inconsistent offset tables with a precise error.

    Guards both loaders against archives whose offset table does not
    cover the flat arrays (previously a bare ``IndexError`` deep in the
    per-cluster slicing).
    """
    offsets = np.asarray(offsets)
    if offsets.ndim != 1 or len(offsets) < 1:
        raise IndexFormatError(
            f"{path!r} member 'offsets' must be a non-empty 1-D table, "
            f"got shape {offsets.shape}"
        )
    if nlist is not None and len(offsets) != nlist + 1:
        raise IndexFormatError(
            f"{path!r} member 'offsets' has {len(offsets)} entries; "
            f"expected nlist+1 = {nlist + 1}"
        )
    if int(offsets[0]) != 0:
        raise IndexFormatError(
            f"{path!r} member 'offsets' must start at 0, got {int(offsets[0])}"
        )
    if len(offsets) > 1 and np.any(np.diff(offsets) < 0):
        raise IndexFormatError(
            f"{path!r} member 'offsets' is not monotonically non-decreasing"
        )
    total = int(offsets[-1])
    if len(ids_flat) != total:
        raise IndexFormatError(
            f"{path!r} member 'ids_flat' has {len(ids_flat)} rows but the "
            f"offset table covers {total}"
        )
    codes_flat = np.asarray(codes_flat)
    if codes_flat.ndim != 2:
        raise IndexFormatError(
            f"{path!r} member 'codes_flat' must be 2-D, "
            f"got shape {codes_flat.shape}"
        )
    if len(codes_flat) != total:
        raise IndexFormatError(
            f"{path!r} member 'codes_flat' has {len(codes_flat)} rows but "
            f"the offset table covers {total}"
        )


# ---------------------------------------------------------------------------
# v1: the legacy .npz container (read-only)
# ---------------------------------------------------------------------------

def _load_v1(path: str) -> QuantizedIndexData:
    try:
        archive = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as e:
        raise IndexFormatError(
            f"{path!r} is not a DRIM-ANN index file (unreadable archive: {e})"
        ) from e
    with archive as z:
        try:
            magic = str(z["magic"])
            version = int(z["version"])
        except KeyError as e:
            raise IndexFormatError(
                f"{path!r} is not a DRIM-ANN index file (no header)"
            ) from e
        if magic != _MAGIC:
            raise IndexFormatError(
                f"{path!r} is not a DRIM-ANN index file "
                f"(bad magic {magic!r})"
            )
        if version > FORMAT_VERSION:
            raise IndexFormatError(
                f"{path!r} has format version {version}; this build reads "
                f"<= {FORMAT_VERSION}"
            )
        try:
            centroids = z["centroids"]
            codebooks = z["codebooks"]
            offsets = z["offsets"]
            ids_flat = z["ids_flat"]
            codes_flat = z["codes_flat"]
        except (KeyError, zipfile.BadZipFile, ValueError, OSError) as e:
            raise IndexFormatError(
                f"{path!r} is truncated or corrupt "
                f"(missing or unreadable member: {e})"
            ) from e
    _validate_flat_layout(
        path, offsets, ids_flat, codes_flat, nlist=len(centroids)
    )
    nlist = len(offsets) - 1
    cluster_ids = [
        ids_flat[offsets[i] : offsets[i + 1]].copy() for i in range(nlist)
    ]
    cluster_codes = [
        codes_flat[offsets[i] : offsets[i + 1]].copy() for i in range(nlist)
    ]
    try:
        return QuantizedIndexData(
            centroids=centroids,
            codebooks=codebooks,
            cluster_ids=cluster_ids,
            cluster_codes=cluster_codes,
        )
    except (TypeError, ValueError) as e:
        raise IndexFormatError(
            f"{path!r} holds inconsistent index arrays: {e}"
        ) from e


# ---------------------------------------------------------------------------
# v2: the DRIMIDX2 binary container
# ---------------------------------------------------------------------------

def _v2_segments(
    index: QuantizedIndexData,
    cluster_heat: Optional[np.ndarray],
    preprocessor: Optional[OpqPreprocessor],
    cluster_radii: Optional[np.ndarray] = None,
) -> List[Tuple[str, np.ndarray]]:
    offsets, ids_flat, codes_flat, tomb_flat = _flatten_index(index)
    segments: List[Tuple[str, np.ndarray]] = [
        ("centroids", np.ascontiguousarray(index.centroids)),
        ("codebooks", np.ascontiguousarray(index.codebooks)),
        ("cluster_offsets", offsets),
        ("ids_flat", np.ascontiguousarray(ids_flat)),
        ("codes_flat", np.ascontiguousarray(codes_flat)),
        ("tombstones", tomb_flat),
    ]
    if cluster_heat is not None:
        heat = np.ascontiguousarray(cluster_heat, dtype=np.float64)
        if heat.shape != (index.nlist,):
            raise ValueError(
                f"cluster_heat must have shape ({index.nlist},), "
                f"got {heat.shape}"
            )
        segments.append(("cluster_heat", heat))
    if preprocessor is not None:
        segments.append(
            (
                "opq_rotation",
                np.ascontiguousarray(preprocessor.rotation, dtype=np.float64),
            )
        )
    if cluster_radii is not None:
        radii = np.ascontiguousarray(cluster_radii, dtype=np.int64)
        if radii.shape != (index.nlist,):
            raise ValueError(
                f"cluster_radii must have shape ({index.nlist},), "
                f"got {radii.shape}"
            )
        segments.append(("cluster_radii", radii))
    return segments


def save_index(
    index: QuantizedIndexData,
    path: str,
    *,
    cluster_heat: Optional[np.ndarray] = None,
    preprocessor: Optional[OpqPreprocessor] = None,
    cluster_radii: Optional[np.ndarray] = None,
) -> None:
    """Write the v2 ``DRIMIDX2`` binary index file, atomically.

    The file is memory-mappable: :func:`load_index` rebuilds every
    cluster's ids/codes as zero-copy views into one mapping. Optional
    payloads: the layout ``cluster_heat`` vector (reloads reproduce the
    exact DPU layout), an OPQ ``preprocessor``, and the per-cluster
    ``cluster_radii`` vector adaptive bound-termination needs (files
    without it still load; adaptive bounds just disable).
    """
    segments = _v2_segments(index, cluster_heat, preprocessor, cluster_radii)
    header: dict = {
        "magic": _MAGIC_V2.decode("ascii"),
        "version": FORMAT_VERSION_V2,
        "nlist": index.nlist,
        "dim": index.dim,
        "num_subspaces": index.num_subspaces,
        "codebook_size": index.codebook_size,
        "num_points": index.num_points,
        "num_tombstones": index.num_tombstones,
        "opq": None
        if preprocessor is None
        else {
            "scale": float(preprocessor.scale),
            "offset": float(preprocessor.offset),
        },
        "segments": {},
    }
    # Fixed-point iteration on the header capacity: segment offsets are
    # absolute, so they depend on the header size, which depends on the
    # (JSON-encoded) offsets. Capacity grows in 1 KiB quanta; trailing
    # space padding is invisible to json.loads.
    capacity = _V2_HEADER_QUANTUM
    while True:
        pos = _V2_PREFIX + capacity
        for name, arr in segments:
            pos += (-pos) % _V2_ALIGN
            header["segments"][name] = {
                "offset": pos,
                "shape": list(arr.shape),
                "dtype": arr.dtype.str,
                "crc32": zlib.crc32(arr.tobytes()) & 0xFFFFFFFF,
            }
            pos += arr.nbytes
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        if len(blob) <= capacity:
            break
        capacity += (
            -(-(len(blob) - capacity) // _V2_HEADER_QUANTUM)
            * _V2_HEADER_QUANTUM
        )
    blob = blob + b" " * (capacity - len(blob))

    def _write(f) -> None:
        f.write(_MAGIC_V2)
        f.write(struct.pack("<Q", capacity))
        f.write(blob)
        pos = _V2_PREFIX + capacity
        for name, arr in segments:
            target = header["segments"][name]["offset"]
            if target > pos:
                f.write(b"\x00" * (target - pos))
            f.write(arr.tobytes())
            pos = target + arr.nbytes

    _atomic_write(path, _write)


def _read_v2_header(path: str) -> Tuple[dict, int]:
    """Parse the v2 prefix + JSON header; returns (header, data_start)."""
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        prefix = f.read(_V2_PREFIX)
        if len(prefix) < _V2_PREFIX or prefix[:8] != _MAGIC_V2:
            raise IndexFormatError(
                f"{path!r} is not a DRIM-ANN v2 index (bad magic)"
            )
        (capacity,) = struct.unpack("<Q", prefix[8:])
        if capacity <= 0 or _V2_PREFIX + capacity > size:
            raise IndexFormatError(
                f"{path!r} is truncated or corrupt (header length "
                f"{capacity} exceeds file size {size})"
            )
        blob = f.read(capacity)
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise IndexFormatError(
            f"{path!r} has an unreadable header: {e}"
        ) from e
    if not isinstance(header, dict) or not isinstance(
        header.get("segments"), dict
    ):
        raise IndexFormatError(f"{path!r} has a malformed header")
    if header.get("magic") != _MAGIC_V2.decode("ascii"):
        raise IndexFormatError(
            f"{path!r} is not a DRIM-ANN v2 index "
            f"(bad header magic {header.get('magic')!r})"
        )
    version = header.get("version")
    if not isinstance(version, int) or version < 2:
        raise IndexFormatError(
            f"{path!r} has a malformed format version {version!r}"
        )
    if version > FORMAT_VERSION_V2:
        raise IndexFormatError(
            f"{path!r} has format version {version}; this build reads "
            f"<= {FORMAT_VERSION_V2}"
        )
    return header, _V2_PREFIX + capacity


def _v2_segment_view(
    path: str, buf: np.ndarray, header: dict, name: str, required: bool = True
) -> Optional[np.ndarray]:
    meta = header["segments"].get(name)
    if meta is None:
        if required:
            raise IndexFormatError(
                f"{path!r} is missing required member {name!r}"
            )
        return None
    try:
        offset = int(meta["offset"])
        shape = tuple(int(s) for s in meta["shape"])
        dtype = np.dtype(str(meta["dtype"]))
    except (KeyError, TypeError, ValueError) as e:
        raise IndexFormatError(
            f"{path!r} member {name!r} has a malformed descriptor: {e}"
        ) from e
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if offset < 0 or nbytes < 0 or offset + nbytes > buf.nbytes:
        raise IndexFormatError(
            f"{path!r} member {name!r} extends past the end of the file "
            f"(offset {offset}, {nbytes} bytes, file {buf.nbytes} bytes)"
        )
    if nbytes == 0:
        return np.empty(shape, dtype=dtype)
    return buf[offset : offset + nbytes].view(dtype).reshape(shape)


def _load_v2_bundle(path: str, mmap: bool) -> IndexBundle:
    header, _ = _read_v2_header(path)
    if mmap:
        buf: np.ndarray = np.memmap(path, dtype=np.uint8, mode="r")
    else:
        buf = np.fromfile(path, dtype=np.uint8)

    def seg(name: str, required: bool = True) -> Optional[np.ndarray]:
        return _v2_segment_view(path, buf, header, name, required)

    centroids = seg("centroids")
    codebooks = seg("codebooks")
    offsets = seg("cluster_offsets")
    ids_flat = seg("ids_flat")
    codes_flat = seg("codes_flat")
    tomb_flat = seg("tombstones")
    heat = seg("cluster_heat", required=False)
    rotation = seg("opq_rotation", required=False)
    radii = seg("cluster_radii", required=False)
    _validate_flat_layout(
        path, offsets, ids_flat, codes_flat, nlist=len(centroids)
    )
    if tomb_flat.ndim != 1 or len(tomb_flat) != len(ids_flat):
        raise IndexFormatError(
            f"{path!r} member 'tombstones' has {len(tomb_flat)} rows; "
            f"expected {len(ids_flat)}"
        )
    nlist = len(offsets) - 1
    # Basic slices: zero-copy views into the mapping — the engine can
    # place these straight into shards and the shared-memory arena.
    cluster_ids = [
        ids_flat[offsets[i] : offsets[i + 1]] for i in range(nlist)
    ]
    cluster_codes = [
        codes_flat[offsets[i] : offsets[i + 1]] for i in range(nlist)
    ]
    tombstones: Optional[List[np.ndarray]] = None
    if bool(tomb_flat.any()):
        # Tombstone masks stay small and must be writable (delete()
        # mutates them), so they are materialized even under mmap.
        tombstones = [
            np.array(tomb_flat[offsets[i] : offsets[i + 1]], dtype=bool)
            for i in range(nlist)
        ]
    try:
        index = QuantizedIndexData(
            centroids=centroids,
            codebooks=codebooks,
            cluster_ids=cluster_ids,
            cluster_codes=cluster_codes,
            tombstones=tombstones,
        )
    except (TypeError, ValueError) as e:
        raise IndexFormatError(
            f"{path!r} holds inconsistent index arrays: {e}"
        ) from e
    preprocessor = None
    if rotation is not None:
        opq_meta = header.get("opq") or {}
        try:
            preprocessor = OpqPreprocessor(
                rotation=np.array(rotation, dtype=np.float64),
                scale=float(opq_meta["scale"]),
                offset=float(opq_meta["offset"]),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise IndexFormatError(
                f"{path!r} member 'opq_rotation' has malformed OPQ "
                f"metadata: {e}"
            ) from e
    return IndexBundle(
        index=index,
        cluster_heat=None if heat is None else np.array(heat, dtype=np.float64),
        preprocessor=preprocessor,
        version=int(header["version"]),
        path=path,
        header=header,
        cluster_radii=(
            None if radii is None else np.array(radii, dtype=np.int64)
        ),
    )


# ---------------------------------------------------------------------------
# Format-dispatching entry points
# ---------------------------------------------------------------------------

def _sniff_v2(path: str) -> bool:
    with open(path, "rb") as f:
        return f.read(8) == _MAGIC_V2


def load_index_bundle(path: str, *, mmap: bool = True) -> IndexBundle:
    """Load any index file (v1 ``.npz`` or v2 binary) with its payloads.

    v2 files load as zero-copy :func:`numpy.memmap` views by default
    (``mmap=False`` materializes them); v1 archives are compressed and
    always materialize. Raises :class:`IndexFormatError` on truncated,
    corrupt, or foreign files, and on versions newer than this build
    reads.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    if _sniff_v2(path):
        return _load_v2_bundle(path, mmap)
    return IndexBundle(
        index=_load_v1(path), version=FORMAT_VERSION, path=path
    )


def load_index(path: str, *, mmap: bool = True) -> QuantizedIndexData:
    """Load the quantized index from any format (see
    :func:`load_index_bundle`)."""
    return load_index_bundle(path, mmap=mmap).index


def index_info(path: str) -> dict:
    """Describe an index file without materializing its arrays.

    For v2 this reads only the header; for v1 the archive members are
    decompressed (the container has no standalone header).
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    file_bytes = os.path.getsize(path)
    if _sniff_v2(path):
        header, _ = _read_v2_header(path)
        num_points = int(header.get("num_points", 0))
        num_tombstones = int(header.get("num_tombstones", 0))
        return {
            "path": path,
            "container": "drimidx2",
            "format_version": int(header["version"]),
            "file_bytes": file_bytes,
            "nlist": int(header.get("nlist", 0)),
            "dim": int(header.get("dim", 0)),
            "num_subspaces": int(header.get("num_subspaces", 0)),
            "codebook_size": int(header.get("codebook_size", 0)),
            "num_points": num_points,
            "num_tombstones": num_tombstones,
            "tombstone_ratio": (
                num_tombstones / num_points if num_points else 0.0
            ),
            "has_cluster_heat": "cluster_heat" in header["segments"],
            "has_opq": "opq_rotation" in header["segments"],
            "has_cluster_radii": "cluster_radii" in header["segments"],
            "optional_segments": {
                "cluster_heat": "cluster_heat" in header["segments"],
                "opq_rotation": "opq_rotation" in header["segments"],
                "cluster_radii": "cluster_radii" in header["segments"],
            },
            "segments": {
                name: {
                    "offset": int(meta["offset"]),
                    "shape": list(meta["shape"]),
                    "dtype": str(meta["dtype"]),
                    "nbytes": int(
                        np.prod(meta["shape"], dtype=np.int64)
                        * np.dtype(str(meta["dtype"])).itemsize
                    ),
                    "crc32": int(meta["crc32"]),
                }
                for name, meta in sorted(header["segments"].items())
            },
        }
    index = _load_v1(path)
    return {
        "path": path,
        "container": "npz",
        "format_version": FORMAT_VERSION,
        "file_bytes": file_bytes,
        "nlist": index.nlist,
        "dim": index.dim,
        "num_subspaces": index.num_subspaces,
        "codebook_size": index.codebook_size,
        "num_points": index.num_points,
        "num_tombstones": 0,
        "tombstone_ratio": 0.0,
        "has_cluster_heat": False,
        "has_opq": False,
        "has_cluster_radii": False,
        "optional_segments": {
            "cluster_heat": False,
            "opq_rotation": False,
            "cluster_radii": False,
        },
        "segments": {},
    }


def verify_index(path: str) -> dict:
    """Deep-check an index file; returns ``{"ok", "errors", ...}``.

    v2 files get a per-segment CRC32 sweep against the header (the
    normal load path skips it — it would defeat lazy mmap paging); v1
    archives get a full decode (zip CRCs are checked inline).
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    errors: List[str] = []
    checked = 0
    if _sniff_v2(path):
        container = "drimidx2"
        try:
            header, _ = _read_v2_header(path)
            buf = np.memmap(path, dtype=np.uint8, mode="r")
            for name in sorted(header["segments"]):
                arr = _v2_segment_view(path, buf, header, name)
                checked += 1
                want = int(header["segments"][name].get("crc32", -1))
                got = zlib.crc32(np.ascontiguousarray(arr).tobytes())
                got &= 0xFFFFFFFF
                if got != want:
                    errors.append(
                        f"member {name!r}: crc32 mismatch "
                        f"(stored {want}, computed {got})"
                    )
            for name in _V2_REQUIRED_SEGMENTS:
                if name not in header["segments"]:
                    errors.append(f"missing required member {name!r}")
            if not errors:
                _load_v2_bundle(path, mmap=True)
        except (IndexFormatError, OSError) as e:
            errors.append(str(e))
    else:
        container = "npz"
        try:
            _load_v1(path)
            checked = 5  # header + the five members
        except (IndexFormatError, FileNotFoundError) as e:
            errors.append(str(e))
    return {
        "path": path,
        "container": container,
        "ok": not errors,
        "checked_segments": checked,
        "errors": errors,
    }
