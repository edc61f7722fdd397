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
distances of scanning.  Both paths pick, among the points at
the exact smallest squared distance, the one with the smallest index, which
is the smallest key because the constructor checks the key order.  So scan
and tree agree bit for bit, ``reach_accuracy`` included.  Building and saving
an index need neither.

The index is immutable apart from that count and the cached tree, and is
safe for concurrent queries: racing queries may both build the tree, or
lose an update to the count, and either way only extra work is done, never
a different answer.
"""
from __future__ import annotations

import functools
import os
import resource
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .kinematics import tip_positions
from .model import (
    InvariantError,
    PlcError,
    RobotDescription,
    description_digest,
)

#: Peak memory of an enumeration per raw configuration, bytes, rounded up from
#: the peak RSS of ``plc workspace build`` above the interpreter's: 96 B at
#: 10**6, 90 B at 10**7 and 69 B at 4**10 configurations (numpy 2.4, Linux).
BYTES_PER_CONFIGURATION = 100

#: (limit, usage) files of the cgroup memory controller: v2, then v1.  A limit
#: that is missing or not an integer (v2 writes "max") sets none; a usage that
#: cannot be read counts as 0.
CGROUP_MEMORY_FILES = (
    ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory.current"),
    (
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
        "/sys/fs/cgroup/memory/memory.usage_in_bytes",
    ),
)

#: Quantization cell edge for position keys, mm.  Far below the 0.2 mm
#: mechanical clearance, far above float noise of <=16 composed transforms.
KEY_CELL = 1e-6

#: Point distances (queries x points, summed over an index's life) that an
#: index scans before it builds its k-d tree.  About 0.1 s of scanning on a
#: 2-core Xeon, well under the scipy import and tree build it spares a
#: one-shot query.
SCAN_BUDGET = 4_000_000
_SCAN_ROWS = 1 << 16  # rows per scan block, neighbors per local block: bounds transient memory
_UNMEASURABLE = "a target is non-finite or too far away to measure"

#: Most neighbors (K x point count) ``local_omnivariance`` gathers: run time
#: grows with it, 6.7 s at 10**7 and 45 s at 10**8 (the default robot at K=100
#: and K=1000, 2-core Xeon).
MAX_LOCAL_NEIGHBORS = 10**8

INDEX_FORMAT_VERSION = 2
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


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temporary file beside ``path`` and rename it over ``path`` on success.

    If the ``with`` body raises, the temporary file is removed, so a failed
    write leaves neither a partial ``path`` nor a stray ``*.tmp`` file.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _closest(points: np.ndarray, target: np.ndarray) -> tuple[float, int]:
    """Smallest exact squared distance from ``target`` to a row of ``points``,
    and the first row at exactly that distance."""
    diffs = points - target
    sq = np.einsum("ij,ij->i", diffs, diffs)
    row = int(np.argmin(sq))
    return sq[row], row


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


class WorkspaceIndex:
    """Reachable-point set with nearest-point queries and, per point, the
    enumeration ranks of the configurations that reach it.

    points:          (G, 3) distinct, finite reachable tool-tip positions, one
                     per key, in strictly ascending key order (both checked, so
                     a misordered or non-finite file is refused); each is the
                     tip position of the first configuration (in canonical
                     order) that produced the key.
    bucket_offsets:  (G + 1,) slice bounds into bucket_members.
    bucket_members:  (M,) enumeration ranks grouped per point, each group in
                     canonical (ascending) order.
    """

    def __init__(
        self,
        desc: RobotDescription,
        points: np.ndarray,
        bucket_offsets: np.ndarray,
        bucket_members: np.ndarray,
    ):
        points = np.ascontiguousarray(points, dtype=float)
        bucket_offsets = np.ascontiguousarray(bucket_offsets, dtype=np.int64)
        bucket_members = np.ascontiguousarray(bucket_members, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise InvariantError("points must have shape (G, 3)")
        if bucket_offsets.shape != (points.shape[0] + 1,):
            raise InvariantError("bucket_offsets must have G + 1 entries")
        if bucket_offsets[0] != 0 or bucket_offsets[-1] != bucket_members.shape[0]:
            raise InvariantError("bucket_offsets must span bucket_members exactly")
        if np.any(np.diff(bucket_offsets) < 1):
            raise InvariantError("every reachable point needs >= 1 configuration")
        if not np.isfinite(points).all():
            raise InvariantError("points must be finite")
        if not _strictly_ascending(position_key(points)):
            raise InvariantError("points must be in strictly ascending key order")
        for arr in (points, bucket_offsets, bucket_members):
            arr.setflags(write=False)
        self.desc = desc
        self.points = points
        self.bucket_offsets = bucket_offsets
        self.bucket_members = bucket_members
        self._scanned = 0  # point distances scanned so far, up to SCAN_BUDGET

    @functools.cached_property
    def tree(self):
        """k-d tree over ``points``, built on first use."""
        from scipy.spatial import cKDTree  # deferred: only tree-building commands pay for scipy

        # unbalanced, uncompacted nodes build faster and answer the same queries
        return cKDTree(self.points, balanced_tree=False, compact_nodes=False)

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

    def _scan_nearest(self, target: np.ndarray) -> int:
        """Exact nearest point to ``target``, by a scan of every point in
        blocks of ``_SCAN_ROWS`` rows; a tie goes to the earliest row."""
        best, nearest = np.inf, -1
        for lo in range(0, self.point_count, _SCAN_ROWS):
            low, row = _closest(self.points[lo : lo + _SCAN_ROWS], target)
            if low < best:
                best, nearest = low, lo + row
        if nearest < 0:  # no finite distance: the tree refuses the same targets
            raise PlcError(_UNMEASURABLE)
        return nearest

    # -- size ----------------------------------------------------------------

    @property
    def point_count(self) -> int:
        return self.points.shape[0]

    @property
    def configuration_count(self) -> int:
        return self.bucket_members.shape[0]

    # -- buckets ---------------------------------------------------------------

    def bucket_size(self, point_index: int) -> int:
        return int(self.bucket_offsets[point_index + 1] - self.bucket_offsets[point_index])

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
            return np.array([self._scan_nearest(t) for t in targets], dtype=np.int64)
        try:
            dist, nearest = self.tree.query(targets, k=2)
            nearest = nearest[:, 0]
            for row, (first, second) in enumerate(dist.tolist()):
                if second <= first + 1e-9:  # never for a one-point index: second is inf
                    target = targets[row]
                    ball = self.tree.query_ball_point(target, first + 1e-9, return_sorted=True)
                    nearest[row] = ball[_closest(self.points[ball], target)[1]]
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
        with atomic_open(path) as fh:
            fh.write(header)
            fh.write(self.points.astype("<f8").tobytes())
            fh.write(self.bucket_offsets.astype("<i8").tobytes())
            fh.write(self.bucket_members.astype("<i8").tobytes())

    @classmethod
    def load(cls, path, desc: RobotDescription) -> "WorkspaceIndex":
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
            expected = _HEADER.size + points_n * 24 + (points_n + 1) * 8 + configs_n * 8
            if size != expected:
                raise PlcError(f"index file {path} is truncated or padded")
            arrays = []
            for dtype, count in (("<f8", points_n * 3), ("<i8", points_n + 1), ("<i8", configs_n)):
                arrays.append(np.fromfile(fh, dtype=dtype, count=count))
                if arrays[-1].shape[0] != count:  # the file shrank after fstat
                    raise PlcError(f"index file {path} is truncated or padded")
        points, offsets, members = arrays
        return cls(desc, points.reshape(points_n, 3), offsets, members)


def _proc_bytes(path: str, field: str) -> int | None:
    """The ``field:  N kB`` line of a /proc file, in bytes, or None where it
    cannot be read."""
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) * 1024
    except OSError:
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
    ``VmSize``, or a cgroup memory limit less the group's usage."""
    available = _proc_bytes("/proc/meminfo", "MemAvailable")
    if available is None:
        available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY:
        in_use = _proc_bytes("/proc/self/status", "VmSize") or 0
        available = min(available, max(limit - in_use, 0))
    for limit_path, usage_path in CGROUP_MEMORY_FILES:
        limit = _file_int(limit_path)
        if limit is not None:
            available = min(available, max(limit - (_file_int(usage_path) or 0), 0))
    return available


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
    needed, available = count * BYTES_PER_CONFIGURATION, _available_memory()
    if needed > available:
        raise InvariantError(
            f"raw configuration count {count} needs about {needed / 1e9:.3g} GB "
            f"to enumerate, more than the {available / 1e9:.3g} GB available"
        )
    if count >= 2**32:  # past _sort_and_group's 32-bit run ids and ranks
        raise InvariantError(f"raw configuration count {count} is at least 2**32")
    positions = tip_positions(desc)
    order, starts = _sort_and_group(position_key(positions))
    points = positions[order[starts]]
    offsets = np.append(starts, count)
    del positions, starts  # freed before the index checks the points' keys
    return WorkspaceIndex(desc, points, offsets, order)


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
    ``enumerate_workspace`` requires; a larger M would need over 400 GB.
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
        column = keys[order, col]
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
    diffs = index.points[index.nearest_point_indices(queries)] - queries
    return float(np.sqrt(np.einsum("ij,ij->i", diffs, diffs).max()))


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
    ``neighbors`` x point count, which may not exceed ``MAX_LOCAL_NEIGHBORS``.
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
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
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
