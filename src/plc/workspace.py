"""Exhaustive workspace enumeration, spatial indexing, and cloud metrics.

The discrete configuration space (tooth_count ** segment_count joint states)
is swept once; tool-tip positions are quantized to integer keys, and equal
keys are merged into one reachable point with every contributing
configuration recorded.

Nearest-point queries start as exact scans over every point, in fixed row
blocks, with no tree and no scipy import.  Each index counts the point
distances it has scanned; the first query that would take the count past
``SCAN_BUDGET`` builds the k-d tree instead, and every later query uses the
tree.  So while ``point_count <= SCAN_BUDGET`` (the reference robot up to 6
segments, 982,750 points), a one-shot ``plc ik`` never pays the scipy import
and tree build (about 0.5 s of a 0.9 s ``plc ik`` on a 2-core Xeon), nor does
a ``plc workspace accuracy`` whose query rows times points stay within the
budget.  A larger index (9,764,811 points at 7 segments) builds the tree on
its first query, since one scan alone would pass the budget.  A long run of
queries pays the import and build once, after at most ``SCAN_BUDGET``
distances of scanning; a tree that would not fit in the available memory
with the scipy import (``TREE_BYTES_PER_POINT`` and ``TREE_IMPORT_BYTES``)
is refused before the import.  Both paths pick,
among the points at the exact smallest squared distance, the one with the
smallest index, which is the smallest key because the constructor checks
the key order: the scan among every point, the tree, when its two nearest
lie within 1e-9 mm, among every point in that margin.  The
squared distance is written once, as ``(dx dx + dz dz) + dy dy`` in plain
float operations, on numpy columns for the scan and ``reach_accuracy`` and
on Python floats for the ``ik`` error.  So scan and tree agree bit for bit,
``reach_accuracy`` included, and ``reach_accuracy`` of one target is the
``ik`` error of a stored point, on every host.  Building and saving an index
need neither.

Each stored point is, bit for bit, the :func:`~plc.kinematics.tool_position`
of its bucket's first configuration, on any host and at any tool offset,
because the FK is written in one order of plain float operations.  An index
that :func:`enumerate_workspace` builds or :meth:`WorkspaceIndex.load` reads
is marked so, and ``solve_ik`` answers that configuration with the stored
point; a hand-built index holds the caller's points and is not marked.

The bucket offsets and members are held as uint32, in memory and in the
``.plcw`` file (format 4): a build refuses 2**32 configurations or more, and
``load`` a header that claims them, so every offset and rank fits.  An index
takes 24 B per point for its points and 4 B per point and per configuration
for the rest; format 3's int64 offsets and members took 8.

The index is immutable apart from the scan count and the cached tree, and
is safe for concurrent queries: racing queries may both build the tree, or
lose an update to the count, and either way only extra work is done, never
a different answer.
"""
from __future__ import annotations

import functools
import os
import resource
import struct
import sys

import numpy as np

from .files import INDEX_FORMAT_VERSION, atomic_open
from .kinematics import tip_positions
from .model import InvariantError, PlcError, RobotDescription, description_digest

#: Peak memory of an enumeration per raw configuration, bytes, rounded up from
#: the peak RSS of ``plc workspace build`` above the interpreter's (a
#: one-segment build's): 69 B at 10**6, 74 B at 10**7 and 70 B at 4**10
#: configurations (numpy 2.4, Linux, uint32 offsets and members).
BYTES_PER_CONFIGURATION = 80

#: Peak memory of an enumeration per tooth, bytes, beyond
#: ``BYTES_PER_CONFIGURATION``: the per-tooth unit columns and tip vectors,
#: and the list of angles their ``math`` cosines read.  Rounded up from the
#: peak RSS of one-segment builds above that of a build of as many
#: configurations on few teeth: 79 B per tooth at 10**6 teeth and 41 B at
#: 10**5 (numpy 2.4, Linux).
BYTES_PER_TOOTH = 90

#: Peak memory of a k-d tree's build per point, bytes, rounded up from the
#: growth of the process's peak address space over ``cKDTree``'s
#: construction: 40.3 B at 982,750 points and 35.0 B at 9,764,811 (the
#: reference robot at 6 and 7 segments; peak RSS grew by 30.7 and 27.3 B),
#: alike for the query tree's settings and the defaults (scipy 1.17, numpy
#: 2.4, Linux).
TREE_BYTES_PER_POINT = 44

#: Memory the ``scipy.spatial`` import takes, bytes, counted with the tree's
#: until it has been imported: rounded up from the growth of the process's
#: address space over the import after numpy, PyYAML and this package, 114 MB
#: with one OpenBLAS thread and 157 MB with two (scipy 1.17, 2-core Xeon), of
#: which 37 MB is resident.  Each further OpenBLAS thread adds about 42 MB.
TREE_IMPORT_BYTES = 160 * 10**6

#: (limit, usage, stat, inactive file field) of the cgroup memory controller:
#: v2, then v1.  A limit that is missing or not an integer (v2 writes "max")
#: sets none.  The usage counts the group's page cache, so its inactive file
#: pages, which the kernel reclaims before it fails an allocation, are counted
#: as free; a usage or field that cannot be read counts as 0.
CGROUP_MEMORY_FILES = (
    (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory.current",
        "/sys/fs/cgroup/memory.stat",
        "inactive_file",
    ),
    (
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
        "/sys/fs/cgroup/memory/memory.usage_in_bytes",
        "/sys/fs/cgroup/memory/memory.stat",
        "total_inactive_file",
    ),
)

#: Quantization cell edge for position keys, mm.  Far below the 0.2 mm
#: mechanical clearance, far above float noise of <=16 composed transforms.
KEY_CELL = 1e-6

#: Point distances (queries x points, summed over an index's life) that an
#: index scans before it builds its k-d tree.  About 0.02 s of scanning on a
#: 2-core Xeon (5.4-5.7 ns per distance at 6 segments), well under the scipy
#: import and tree build it spares a one-shot query (0.5-0.65 s there).
SCAN_BUDGET = 4_000_000
_SCAN_ROWS = 1 << 16  # rows per scan block, neighbors per local block: bounds transient memory
_UNMEASURABLE = "a target is non-finite or too far away to measure"
#: Memory the index constructor's checks hold beyond the arrays, bytes, at
#: any point count: they run one block of rows at a time, and the key check's
#: scaled floats and int64 keys set the peak (``tracemalloc``: 48.0 B per row).
#: ``load``'s member check holds one bool per rank beside it, charged apart,
#: and its blocks of uint32 members stay within it (6 B per member).
_CHECK_BYTES = 50 * (_SCAN_ROWS + 1)

#: Most neighbors (K x point count) ``local_omnivariance`` gathers: run time
#: grows with it, 6.7 s at 10**7 and 45 s at 10**8 (the default robot at K=100
#: and K=1000, 2-core Xeon).
MAX_LOCAL_NEIGHBORS = 10**8

_MAGIC = b"PLCW"
_HEADER = struct.Struct("<4sI32sIIQQ")


def position_key(position) -> np.ndarray:
    """Quantized integer key(s) of position(s): round(coord / cell).

    A coordinate whose key int64 cannot hold (at least 2**63 cells, about
    9.2e12 mm, from the origin, or non-finite) is refused, since the cast
    would merge it with other points.
    """
    scaled = np.asarray(position, dtype=float) / KEY_CELL
    np.rint(scaled, out=scaled)
    if scaled.size and not (scaled.min() >= -(2.0**63) and scaled.max() < 2.0**63):
        raise InvariantError(
            f"a position lies outside the key range of +-{2.0**63 * KEY_CELL:.3g} mm"
        )
    return scaled.astype(np.int64)


def _squared_distance(dx, dy, dz):
    """Squared length ``(dx dx + dz dz) + dy dy`` of an offset, in that order
    (Python floats for one offset, or numpy columns for many): every nearest
    point, ``reach_accuracy`` and the ``ik`` error read it."""
    return (dx * dx + dz * dz) + dy * dy


def _closest(points: np.ndarray, target: np.ndarray) -> int:
    """First row of ``points`` at the smallest exact squared distance from
    ``target``, scanned in blocks of ``_SCAN_ROWS`` rows.

    A target with no finite distance to any row is refused, as the tree
    refuses it.
    """
    tx, ty, tz = target.tolist()
    best, nearest = np.inf, -1
    for lo in range(0, points.shape[0], _SCAN_ROWS):
        # each column of the strided block on its own: forming the whole
        # difference first takes about twice as long
        x, y, z = points[lo : lo + _SCAN_ROWS].T
        with np.errstate(over="ignore"):  # a square past the float range is inf, not a warning
            squared = _squared_distance(x - tx, y - ty, z - tz)
        row = int(squared.argmin())
        if squared[row] < best:  # a later block wins only when strictly closer
            best, nearest = squared[row], lo + row
    if nearest < 0:
        raise PlcError(_UNMEASURABLE)
    return nearest


def _strictly_ascending(keys: np.ndarray) -> bool:
    """Whether the rows of ``keys`` are in strictly ascending lexicographic order."""
    before, after = keys[:-1].T, keys[1:].T
    later = before[2] < after[2]
    for col in (1, 0):  # a row is later if its first differing column is larger
        later = (before[col] < after[col]) | ((before[col] == after[col]) & later)
    return bool(later.all())


def configuration_from_rank(rank, desc: RobotDescription) -> np.ndarray:
    """Joint indices of enumeration rank(s): digits of rank base tooth_count."""
    rank = np.asarray(rank, dtype=np.int64)
    n, teeth = desc.segment_count, desc.tooth_count
    powers = teeth ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return (rank[..., None] // powers) % teeth


def _members_are_ranks(offsets: np.ndarray, members: np.ndarray) -> bool:
    """Whether ``members`` (M,) holds each rank of ``[0, M)`` once and
    ascends strictly within each bucket that ``offsets`` bounds.

    A bool array of M bytes marks the ranks seen; the rest runs one block of
    ``_SCAN_ROWS`` members at a time, within ``_CHECK_BYTES``.
    """
    count = members.shape[0]
    seen = np.zeros(count, dtype=bool)
    # in blocks that overlap by one member, so every neighbouring pair is compared
    for lo in range(0, count, _SCAN_ROWS):
        block = members[lo : lo + _SCAN_ROWS + 1]
        if not (block.min() >= 0 and block.max() < count):
            return False
        seen[block] = True
        # a rank not above the one before it must start a bucket
        rises = block[1:] > block[:-1]
        # bounds of the offsets' dtype: a list of ints would cast all of them
        bounds = np.array([lo + 1, lo + block.shape[0]], dtype=offsets.dtype)
        first, last = np.searchsorted(offsets, bounds).tolist()
        starts = offsets[first:last]
        rises[starts - (lo + 1)] = True
        if not rises.all():
            return False
    return bool(seen.all())  # M ranks in range, none missing: each once


def _as_uint32(values, name: str) -> np.ndarray:
    """``values`` as a contiguous uint32 array, refused if a value lies
    outside [0, 2**32), where the cast would wrap."""
    values = np.asarray(values)
    if values.dtype != np.uint32 and values.size:
        if not (values.min() >= 0 and values.max() < 2**32):
            raise InvariantError(f"{name} must lie in [0, 2**32)")
    return np.ascontiguousarray(values, dtype=np.uint32)


def _rank_indices(rank: int, desc: RobotDescription) -> tuple[int, ...]:
    """Joint indices of one enumeration rank as a tuple of Python ints: the
    digits ``configuration_from_rank`` gives, by ``divmod`` from the last joint."""
    indices = [0] * desc.segment_count
    for joint in range(desc.segment_count - 1, -1, -1):
        rank, indices[joint] = divmod(rank, desc.tooth_count)
    return tuple(indices)


class WorkspaceIndex:
    """Reachable-point set with nearest-point queries and, per point, the
    enumeration ranks of the configurations that reach it.

    points:          (G, 3) distinct, finite reachable tool-tip positions, one
                     per key, in strictly ascending key order (both checked, so
                     a misordered or non-finite file is refused); each is the
                     tip position of the first configuration (in canonical
                     order) that produced the key.
    bucket_offsets:  (G + 1,) uint32 slice bounds into bucket_members.
    bucket_members:  (M,) uint32 enumeration ranks grouped per point, each
                     group in canonical (ascending) order.

    Both integer arrays are held as uint32, the widths of the file: a build
    refuses 2**32 configurations or more, so every offset and rank fits.  A
    caller's array of another dtype is cast, and refused if a value lies
    outside [0, 2**32), so the cast never wraps.
    """

    def __init__(
        self,
        desc: RobotDescription,
        points: np.ndarray,
        bucket_offsets: np.ndarray,
        bucket_members: np.ndarray,
    ):
        points = np.ascontiguousarray(points, dtype=float)
        bucket_offsets = _as_uint32(bucket_offsets, "bucket_offsets")
        bucket_members = _as_uint32(bucket_members, "bucket_members")
        if points.ndim != 2 or points.shape[1] != 3:
            raise InvariantError("points must have shape (G, 3)")
        if bucket_offsets.shape != (points.shape[0] + 1,):
            raise InvariantError("bucket_offsets must have G + 1 entries")
        if bucket_offsets[0] != 0 or bucket_offsets[-1] != bucket_members.shape[0]:
            raise InvariantError("bucket_offsets must span bucket_members exactly")
        # in blocks that overlap by one row, so every neighbouring pair is
        # compared and no check holds more than one block
        for lo in range(0, points.shape[0], _SCAN_ROWS):
            offsets = bucket_offsets[lo : lo + _SCAN_ROWS + 1]
            if np.any(offsets[1:] <= offsets[:-1]):
                raise InvariantError("every reachable point needs >= 1 configuration")
            block = points[lo : lo + _SCAN_ROWS + 1]
            if not np.isfinite(block).all():
                raise InvariantError("points must be finite")
            if not _strictly_ascending(position_key(block)):
                raise InvariantError("points must be in strictly ascending key order")
        for arr in (points, bucket_offsets, bucket_members):
            arr.setflags(write=False)
        self.desc = desc
        self.points = points
        self.bucket_offsets = bucket_offsets
        self.bucket_members = bucket_members
        self._scanned = 0  # point distances scanned so far, up to SCAN_BUDGET
        # whether each point is its bucket's first tool tip: set by
        # enumerate_workspace and load, not for points a caller hands in
        self._points_are_tips = False

    @functools.cached_property
    def tree(self):
        """k-d tree over ``points``, built on first use, or refused before
        it is built where it would not fit in the available memory."""
        # unbalanced, uncompacted nodes build faster and answer the same queries
        return _kd_tree(self.points, balanced_tree=False, compact_nodes=False)

    def _scans(self, queries: int) -> bool:
        """Whether the next ``queries`` queries scan every point, not the tree.

        Ski rental: each scan pays queries x point_count distances, the tree
        a one-off import and build.  Scan while the running total stays within
        SCAN_BUDGET; once it would not, or once the tree exists, use the tree.
        """
        if "tree" in vars(self):  # the hot path, once the tree exists
            return False
        cost = queries * self.point_count
        if self._scanned + cost > SCAN_BUDGET:
            return False
        self._scanned += cost
        return True

    # -- size ----------------------------------------------------------------

    @property
    def point_count(self) -> int:
        return self.points.shape[0]

    @property
    def configuration_count(self) -> int:
        return self.bucket_members.shape[0]

    # -- buckets ---------------------------------------------------------------

    def bucket_ranks(self, point_index: int) -> np.ndarray:
        """Enumeration ranks of the configurations reaching a point."""
        lo, hi = self.bucket_offsets[point_index], self.bucket_offsets[point_index + 1]
        return self.bucket_members[lo:hi]

    # -- queries ---------------------------------------------------------------

    def nearest_point_indices(self, targets) -> np.ndarray:
        """Indices (Q,) of the stored points nearest to each row of ``targets`` (Q, 3).

        The nearest point has the smallest exact squared distance; an exact
        tie goes to the smallest index, which is the smallest key.  A scan
        (see ``SCAN_BUDGET``) checks every point.  The tree answers every
        row with one k=2 query; a row whose second-nearest point lies within
        1e-9 mm of its nearest takes as candidates every point in that
        margin, which always holds the exact minimum.
        """
        targets = np.asarray(targets, dtype=float)
        if targets.ndim != 2 or targets.shape[1] != 3:
            raise PlcError(f"targets must be 3-vectors, got shape {targets.shape}")
        if self.point_count == 0:
            raise PlcError("empty workspace index")
        if self._scans(targets.shape[0]):
            return np.array([_closest(self.points, t) for t in targets], dtype=np.int64)
        try:
            dist, nearest = self.tree.query(targets, k=2)
            nearest = nearest[:, 0]
            for row, (first, second) in enumerate(dist.tolist()):
                if second <= first + 1e-9:  # never for a one-point index: second is inf
                    target = targets[row]
                    ball = self.tree.query_ball_point(target, first + 1e-9, return_sorted=True)
                    nearest[row] = ball[_closest(self.points[ball], target)]
        except ValueError as exc:  # scipy refuses non-finite and overflowing distances
            raise PlcError(_UNMEASURABLE) from exc
        return nearest

    def nearest_point_index(self, target) -> int:
        """Index of the stored point nearest to ``target`` (see ``nearest_point_indices``)."""
        target = np.asarray(target, dtype=float)
        if target.shape != (3,):
            raise PlcError(f"target must be a 3-vector, got shape {target.shape}")
        return int(self.nearest_point_indices(target[None])[0])

    # -- persistence -------------------------------------------------------------

    def save(self, path) -> None:
        with atomic_open(path) as fh:
            self._write(fh)

    def _write(self, fh) -> None:
        """Write the ``.plcw`` bytes to the open binary file ``fh``."""
        digest = description_digest(self.desc)
        header = _HEADER.pack(
            _MAGIC,
            INDEX_FORMAT_VERSION,
            digest,
            self.desc.segment_count,
            self.desc.tooth_count,
            self.point_count,
            self.configuration_count,
        )
        fh.write(header)
        # the arrays themselves, not copies, on a little-endian host
        fh.write(self.points.astype("<f8", copy=False))
        fh.write(self.bucket_offsets.astype("<u4", copy=False))
        fh.write(self.bucket_members.astype("<u4", copy=False))

    @classmethod
    def load(cls, path, desc: RobotDescription) -> "WorkspaceIndex":
        """Read an index that :meth:`save` wrote for ``desc``.

        The header must match ``desc`` and the file size the header, and a
        file whose arrays, with the constructor's checks and the member check's
        M bytes, would need more than the available memory is refused before
        anything is read.  The constructor's checks hold, and the bucket
        members must be each enumeration rank once, ascending within each
        bucket: ``solve_ik`` takes joint indices from any uint32 rank, so a
        wrong one would answer a configuration that does not reach its point.
        """
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < _HEADER.size:
                raise PlcError(f"index file {path} is truncated")
            magic, version, digest, n, teeth, points_n, configs_n = _HEADER.unpack(
                fh.read(_HEADER.size)
            )
            if magic != _MAGIC:
                raise PlcError(f"{path} is not a workspace index file")
            if version != INDEX_FORMAT_VERSION:
                raise PlcError(
                    f"index format version {version} unsupported "
                    f"(expected {INDEX_FORMAT_VERSION})"
                )
            if digest != description_digest(desc):
                raise PlcError("index was built for a different robot description")
            # every configuration is stored, and teeth**64 exceeds any stored count
            expected = (desc.segment_count, desc.tooth_count, teeth ** min(n, 64))
            if (n, teeth, configs_n) != expected:
                raise PlcError("index header disagrees with robot description")
            if configs_n >= 2**32:  # no build stores them, and ranks are uint32
                raise PlcError(f"index file {path} claims {configs_n} configurations, at least 2**32")
            expected = _HEADER.size + points_n * 24 + (points_n + 1) * 4 + configs_n * 4
            if size != expected:
                raise PlcError(f"index file {path} is truncated or padded")
            needed = size - _HEADER.size + configs_n + _CHECK_BYTES
            _require_memory(needed, f"index file {path}", "load")
            arrays = []
            for dtype, count in (("<f8", points_n * 3), ("<u4", points_n + 1), ("<u4", configs_n)):
                arrays.append(np.fromfile(fh, dtype=dtype, count=count))
                if arrays[-1].shape[0] != count:  # the file shrank after fstat
                    raise PlcError(f"index file {path} is truncated or padded")
        points, offsets, members = arrays
        index = cls(desc, points.reshape(points_n, 3), offsets, members)
        if not _members_are_ranks(index.bucket_offsets, index.bucket_members):
            raise PlcError(
                f"index file {path} has bucket members that are not each rank 0 to "
                f"{configs_n - 1} once, ascending within each bucket"
            )
        index._points_are_tips = True
        return index


def _field_bytes(path: str, field: str) -> int | None:
    """The ``field`` line of a /proc file (``field:  N kB``) or of a cgroup
    ``memory.stat`` (``field N``, in bytes), in bytes, or None where it cannot
    be read."""
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            for line in fh:
                words = line.split()
                if words[:1] in ([field], [field + ":"]):
                    return int(words[1]) * (1024 if words[2:] == ["kB"] else 1)
    except (OSError, ValueError, IndexError):
        pass
    return None


def _file_int(path: str) -> int | None:
    """The integer a file holds, or None where it cannot be read or holds
    something else."""
    try:
        with open(path, encoding="ascii") as fh:
            return int(fh.read())
    except (OSError, ValueError):
        return None


def _available_memory() -> int:
    """Bytes of memory available to new allocations: ``MemAvailable`` from
    /proc/meminfo, or the physical memory where that cannot be read, and no
    more than a finite soft ``RLIMIT_AS`` less the process's current
    ``VmSize``, or a cgroup memory limit less the group's usage other than
    its inactive page cache."""
    available = _field_bytes("/proc/meminfo", "MemAvailable")
    if available is None:
        available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY:
        in_use = _field_bytes("/proc/self/status", "VmSize") or 0
        available = min(available, max(limit - in_use, 0))
    for limit_path, usage_path, stat_path, inactive_field in CGROUP_MEMORY_FILES:
        limit = _file_int(limit_path)
        if limit is not None:
            usage = _file_int(usage_path) or 0
            usage -= min(_field_bytes(stat_path, inactive_field) or 0, usage)
            available = min(available, max(limit - usage, 0))
    return available


def _require_memory(needed: int, subject: str, task: str) -> None:
    """Refuse, before any work, a ``task`` on ``subject`` that needs more
    than ``_available_memory()``, with ``needed`` its estimated peak in bytes."""
    available = _available_memory()
    if needed > available:
        raise InvariantError(
            f"{subject} needs about {needed / 1e9:.3g} GB to {task}, "
            f"more than the {available / 1e9:.3g} GB available"
        )


def _kd_tree(points: np.ndarray, **options):
    """``cKDTree(points, **options)``, refused before it is built where its
    ``TREE_BYTES_PER_POINT`` per point, and ``TREE_IMPORT_BYTES`` while
    ``scipy.spatial`` is not yet imported, exceed the available memory."""
    count = points.shape[0]
    needed = count * TREE_BYTES_PER_POINT
    if "scipy.spatial" not in sys.modules:
        needed += TREE_IMPORT_BYTES
    _require_memory(needed, f"a k-d tree of {count} points", "build")
    from scipy.spatial import cKDTree  # deferred: only tree-building commands pay for scipy

    return cKDTree(points, **options)


def enumerate_workspace(desc: RobotDescription) -> WorkspaceIndex:
    """Sweep every discrete configuration and build the workspace index.

    Order is canonical (joint 1 slowest, tooth index ascending), so repeated
    runs produce bit-identical indexes and bucket lists keep a reproducible
    order.  This is the one place the enumeration's size is checked: a build
    that would need more than the available memory, or of 2**32
    configurations or more, is refused before any work.
    """
    teeth, n = desc.tooth_count, desc.segment_count
    # teeth**n >= 2**(n * (bit_length - 1)): no memory holds 2**64 configurations
    if n * (teeth.bit_length() - 1) >= 64:
        raise InvariantError(f"raw configuration count {teeth}**{n} is at least 2**64")
    count = desc.raw_configuration_count
    needed = count * BYTES_PER_CONFIGURATION + teeth * BYTES_PER_TOOTH
    _require_memory(needed, f"raw configuration count {count}", "enumerate")
    if count >= 2**32:  # past _sort_and_group's 32-bit run ids and the uint32 ranks
        raise InvariantError(f"raw configuration count {count} is at least 2**32")
    positions = tip_positions(desc)
    order, starts = _sort_and_group(position_key(positions))
    points = np.take(positions, order[starts], axis=0)  # 3x faster than fancy indexing
    del positions  # freed first, so the casts to the index's widths add nothing to the peak
    offsets = np.append(starts, count).astype(np.uint32)
    members = order.astype(np.uint32)
    del starts, order  # freed before the index checks the points' keys
    index = WorkspaceIndex(desc, points, offsets, members)
    index._points_are_tips = True
    return index


def _sort_and_group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the rows of ``keys`` (M, 3) into groups of equal rows.

    Returns ``order`` (M,), the row indices sorted by (x, y, z, row), and
    ``starts``, the positions in ``order`` where each group of equal keys
    begins: the same as a stable ``np.lexsort((z, y, x))`` and a compare of
    neighbouring rows.

    Every column less its minimum is packed into one uint64 primary key, x
    whole and then as many top bits of y and of z as fit; sorting that with
    the SIMD argsort is several times faster than ``np.lexsort``.  Rows that
    share a primary key (a run) come out in any order, and one value sort of
    (run << rank_bits | row) puts each run back in row order.  Run ids (1 to
    M) and rows each take at most 32 bits while M < 2**32, which
    ``enumerate_workspace`` requires; a larger M would need over 340 GB.
    A run whose rows differ in the bits left out of the primary key (points
    on the symmetry axis) is re-sorted by (x, y, z, row) on its own.
    """
    count = keys.shape[0]
    primary, used, partial = np.zeros(count, dtype=np.uint64), 0, []
    for col in range(3):
        low = int(keys[:, col].min())
        width = (int(keys[:, col].max()) - low).bit_length()
        take = min(width, 64 - used)
        if take:
            # the offset from the minimum is below 2**64: wrapped int64 viewed as uint64
            part = (keys[:, col] - np.int64(low)).view(np.uint64)
            part >>= np.uint64(width - take)
            primary <<= np.uint64(take)  # only all-zero primary is shifted by 64
            primary |= part
            del part
            used += take
        if take < width:
            partial.append(col)

    order = np.argsort(primary)
    primary.sort()  # the same values as primary[order], without the gather
    new_group = np.empty(count, dtype=bool)
    new_group[0] = True
    np.not_equal(primary[1:], primary[:-1], out=new_group[1:])
    del primary

    # rows of one run that differ in a partly packed column, in any order
    differs = np.zeros(count, dtype=bool)
    for col in partial:
        # the column gathered, not the rows: 2x faster than keys[order, col],
        # and without the copy of the column np.take would make
        column = keys[:, col][order]
        differs[1:] |= column[1:] != column[:-1]
        del column
    differs &= ~new_group

    run = new_group.astype(np.uint64)
    np.cumsum(run, out=run)  # in place: a cumsum of the bools would cast a copy first
    mixed = np.zeros(count + 1, dtype=bool)
    mixed[run[differs]] = True
    del differs
    members = np.flatnonzero(mixed[run])  # positions in a run that needs a re-sort
    del mixed

    rank_bits = (count - 1).bit_length()
    run <<= np.uint64(rank_bits)
    run |= order.view(np.uint64)
    run.sort()
    np.bitwise_and(run, np.uint64((1 << rank_bits) - 1), out=order.view(np.uint64))
    del run
    if members.size:
        rows = order[members]
        member_keys = keys[rows]
        resort = np.lexsort((rows, member_keys[:, 2], member_keys[:, 1], member_keys[:, 0]))
        order[members] = rows[resort]
        member_keys = member_keys[resort]
        new_group[members[1:]] |= np.any(member_keys[1:] != member_keys[:-1], axis=1)
    return order, np.flatnonzero(new_group)


def reach_accuracy(index: WorkspaceIndex, queries) -> float:
    """Worst-case distance from any query to its nearest reachable point."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.size == 0:
        raise PlcError("no query points given")
    dx, dy, dz = (index.points[index.nearest_point_indices(queries)] - queries).T
    return float(np.sqrt(_squared_distance(dx, dy, dz).max()))


def omnivariance(points) -> float:
    """Cube root of the covariance eigenvalue product of a 3-D point cloud.

    Eigenvalues within 1e-12 of zero (relative to the largest) are clamped to
    exactly zero, so planar or degenerate clouds report 0 rather than cube
    roots of rounding noise.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise PlcError("omnivariance needs an (N, 3) point cloud")
    if pts.shape[0] < 2:
        raise PlcError("omnivariance needs at least two points")
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / pts.shape[0]
    eigenvalues = np.linalg.eigvalsh(cov)
    top = eigenvalues[-1]
    if top <= 0.0:
        return 0.0
    eigenvalues = np.where(np.abs(eigenvalues) <= 1e-12 * top, 0.0, eigenvalues)
    if np.any(eigenvalues < 0.0):
        raise PlcError("covariance produced a significantly negative eigenvalue")
    return float(np.cbrt(eigenvalues[0] * eigenvalues[1] * eigenvalues[2]))


def local_omnivariance(points, neighbors: int) -> np.ndarray:
    """Per-point omnivariance over each point's k-nearest neighborhood.

    The neighborhood includes the point itself; ``neighbors`` >= 4 keeps the
    local covariance non-degenerate in general position.  Run time grows with
    ``neighbors`` x point count, which may not exceed ``MAX_LOCAL_NEIGHBORS``,
    and a k-d tree that would not fit in the available memory is refused
    before it is built.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise PlcError("local omnivariance needs an (N, 3) point cloud")
    if not 2 <= neighbors <= pts.shape[0]:
        raise PlcError(
            f"neighborhood size {neighbors} outside [2, {pts.shape[0]}]"
        )
    if neighbors * pts.shape[0] > MAX_LOCAL_NEIGHBORS:
        raise PlcError(
            f"neighborhood size {neighbors} x {pts.shape[0]} points exceeds "
            f"{MAX_LOCAL_NEIGHBORS} neighbors"
        )
    tree = _kd_tree(pts)
    values = np.empty(pts.shape[0])
    rows = max(1, _SCAN_ROWS // neighbors)  # blocks of about _SCAN_ROWS neighbors
    for lo in range(0, pts.shape[0], rows):
        _, idx = tree.query(pts[lo : lo + rows], k=neighbors)
        hoods = pts[idx]
        centered = hoods - hoods.mean(axis=1, keepdims=True)
        covs = np.einsum("nki,nkj->nij", centered, centered) / neighbors
        eigenvalues = np.linalg.eigvalsh(covs)
        top = eigenvalues[:, -1:]
        eigenvalues = np.where(np.abs(eigenvalues) <= 1e-12 * np.maximum(top, 0.0), 0.0, eigenvalues)
        values[lo : lo + rows] = np.cbrt(eigenvalues[:, 0] * eigenvalues[:, 1] * eigenvalues[:, 2])
    return values
