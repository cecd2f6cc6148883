"""Server interconnect topology models.

The paper's core observation is that *where* a GPU sits in the PCIe tree
determines how much communication bandwidth it can actually use:

* Commodity servers attach several GPUs to one CPU **root complex** through a
  PCIe switch (Figure 1a).  Without GPUDirect P2P every GPU-to-GPU transfer
  bounces through DRAM, so concurrent transfers from GPUs under the same root
  complex contend for the root complex's uplink.
* Data-center servers add fully-connected NVLink (Figure 1b), so GPU-to-GPU
  traffic bypasses the PCIe tree entirely.

A :class:`Topology` is a directed graph (full-duplex PCIe links become two
directed edges with independent capacity) over GPU, switch, root-complex and
DRAM nodes.  Transfers are described by *paths* — tuples of directed edges —
which the discrete-event simulator turns into bandwidth-shared flows.

The graph is held as a *link table*: construction gives every directed edge
a dense integer id (:meth:`Topology.link_id`), in insertion order, and keeps
one interned ``Edge`` tuple (:attr:`Topology.links`) and one capacity
(:attr:`Topology.link_bandwidths`) per id.  Paths are built from the
interned edges and handed out as shared tuples: the to- and from-DRAM paths
once per GPU at construction, GPU-to-GPU paths memoised per ``(src, dst)``
pair on first use (an eager table would be quadratic in the GPU count).  The
simulator maps each distinct path to its link ids once and indexes links by
id from then on (:class:`repro.sim.resources.FlowNetwork`).

The standard topologies of the evaluation (§4) are provided as factories:
``Topo 4`` (four GPUs on one root complex), ``Topo 2+2``, ``Topo 1+3``, the
8-GPU ``Topo 4+4`` and the EC2 P3 style NVLink data-center server.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from repro.hardware.gpu import RTX_3090TI, V100, GPUSpec

__all__ = [
    "Edge",
    "Path",
    "Topology",
    "commodity_server",
    "datacenter_server",
    "topo_4",
    "topo_2_2",
    "topo_1_3",
    "topo_4_4",
    "PCIE_EFFECTIVE_BW",
    "DRAM_BW",
    "NVLINK_BW",
]

GB = 1e9

#: Measured effective PCIe bandwidth on the paper's testbed (§4.2: "the
#: maximum bandwidth measured is 13.1 GB/s").
PCIE_EFFECTIVE_BW = 13.1 * GB

#: DRAM copy bandwidth; far above PCIe so it is never the bottleneck.
DRAM_BW = 80.0 * GB

#: Per-pair NVLink bandwidth on the V100 data-center server.  The paper quotes
#: 300 GB/s aggregate for the P3.8xlarge's NVLink mesh; with six link pairs
#: this is 50 GB/s per GPU pair.
NVLINK_BW = 50.0 * GB

#: A directed edge ``(src_node, dst_node)``; node names are strings such as
#: ``"gpu0"``, ``"sw1"``, ``"rc0"`` and ``"dram"``.
Edge = tuple[str, str]

#: A transfer path: an ordered tuple of directed edges.
Path = tuple[Edge, ...]


def _gpu_node(index: int) -> str:
    return f"gpu{index}"


class Topology:
    """Interconnect topology of one multi-GPU server.

    Args:
        gpu_spec: Device model for every GPU in the server (homogeneous
            servers only, as in the paper).
        groups: Number of GPUs under each CPU root complex; ``[2, 2]`` is
            the paper's ``Topo 2+2``.
        pcie_bandwidth: Effective bandwidth of each PCIe link (GPU-to-switch
            and switch-to-root-complex uplink) in bytes/s.
        dram_bandwidth: Root-complex-to-DRAM bandwidth in bytes/s.
        nvlink_bandwidth: If not ``None``, adds fully-connected direct
            GPU-to-GPU links of this bandwidth and enables GPUDirect P2P.
        name: Human-readable label, e.g. ``"Topo 2+2"``.
    """

    def __init__(
        self,
        gpu_spec: GPUSpec,
        groups: Sequence[int],
        *,
        pcie_bandwidth: float = PCIE_EFFECTIVE_BW,
        dram_bandwidth: float = DRAM_BW,
        nvlink_bandwidth: float | None = None,
        name: str | None = None,
    ) -> None:
        if not groups or any(g <= 0 for g in groups):
            raise ValueError(f"groups must be positive GPU counts, got {groups!r}")
        self.gpu_spec = gpu_spec
        self.groups = tuple(groups)
        self.pcie_bandwidth = pcie_bandwidth
        self.dram_bandwidth = dram_bandwidth
        self.nvlink_bandwidth = nvlink_bandwidth
        self.name = name or "+".join(str(g) for g in groups)

        self._n_gpus = sum(self.groups)
        self._rc_of_gpu: dict[int, int] = {}
        self._gpus_of_rc: dict[int, tuple[int, ...]] = {}
        #: The link table: edge -> id, id -> interned edge, id -> capacity.
        self._link_ids: dict[Edge, int] = {}
        self._links: list[Edge] = []
        self._bandwidths: list[float] = []
        #: Shared path tuples: per GPU to and from DRAM, and per ``(src,
        #: dst)`` GPU pair once asked for.
        self._to_dram: list[Path] = []
        self._from_dram: list[Path] = []
        self._gpu_paths: dict[tuple[int, int], Path] = {}
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _add_duplex_link(self, a: str, b: str, bandwidth: float) -> None:
        """Add a full-duplex link as two independent directed edges."""
        for edge in ((a, b), (b, a)):
            self._link_ids[edge] = len(self._links)
            self._links.append(edge)
            self._bandwidths.append(bandwidth)

    def _interned(self, u: str, v: str) -> Edge:
        return self._links[self._link_ids[(u, v)]]

    def _build(self) -> None:
        gpu_index = 0
        for rc_index, group_size in enumerate(self.groups):
            rc = f"rc{rc_index}"
            switch = f"sw{rc_index}"
            self._add_duplex_link(switch, rc, self.pcie_bandwidth)
            self._add_duplex_link(rc, "dram", self.dram_bandwidth)
            members = []
            for _ in range(group_size):
                gpu = _gpu_node(gpu_index)
                self._add_duplex_link(gpu, switch, self.pcie_bandwidth)
                self._rc_of_gpu[gpu_index] = rc_index
                members.append(gpu_index)
                gpu_index += 1
            self._gpus_of_rc[rc_index] = tuple(members)
        if self.nvlink_bandwidth is not None:
            for a, b in itertools.combinations(range(self.n_gpus), 2):
                self._add_duplex_link(_gpu_node(a), _gpu_node(b), self.nvlink_bandwidth)
        for gpu in range(self.n_gpus):
            rc = self._rc_of_gpu[gpu]
            hops = (_gpu_node(gpu), f"sw{rc}", f"rc{rc}", "dram")
            to_dram = tuple(self._interned(u, v) for u, v in itertools.pairwise(hops))
            self._to_dram.append(to_dram)
            self._from_dram.append(
                tuple(self._interned(v, u) for u, v in reversed(to_dram))
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_gpus(self) -> int:
        """Total number of GPUs in the server."""
        return self._n_gpus

    @property
    def n_root_complexes(self) -> int:
        """Number of CPU root complexes."""
        return len(self.groups)

    @property
    def has_p2p(self) -> bool:
        """Whether GPUDirect P2P (direct GPU-to-GPU paths) is available."""
        return self.nvlink_bandwidth is not None

    def root_complex_of(self, gpu: int) -> int:
        """Index of the root complex that ``gpu`` hangs off."""
        self._check_gpu(gpu)
        return self._rc_of_gpu[gpu]

    def gpus_under_root_complex(self, rc: int) -> tuple[int, ...]:
        """GPU indices attached to root complex ``rc``."""
        if rc not in self._gpus_of_rc:
            raise ValueError(f"no root complex {rc}; topology has {self.n_root_complexes}")
        return self._gpus_of_rc[rc]

    def share_root_complex(self, gpu_a: int, gpu_b: int) -> bool:
        """Whether two GPUs share a CPU root complex (and hence its uplink)."""
        return self.root_complex_of(gpu_a) == self.root_complex_of(gpu_b)

    def shared_group_size(self, gpu_a: int, gpu_b: int) -> int:
        """``shared(i, j)`` of Eq. 12: the number of GPUs under the common
        root complex of ``gpu_a`` and ``gpu_b``, or 0 when they differ."""
        if not self.share_root_complex(gpu_a, gpu_b):
            return 0
        return len(self.gpus_under_root_complex(self.root_complex_of(gpu_a)))

    def link_id(self, edge: Edge) -> int:
        """Dense id of a directed edge: its index in :attr:`links`."""
        try:
            return self._link_ids[edge]
        except KeyError:
            raise KeyError(f"edge {edge!r} is not part of topology {self.name!r}") from None

    @property
    def links(self) -> tuple[Edge, ...]:
        """Every directed edge, indexed by link id (the interned tuples)."""
        return tuple(self._links)

    @property
    def link_bandwidths(self) -> tuple[float, ...]:
        """Capacity of every directed edge in bytes/s, indexed by link id."""
        return tuple(self._bandwidths)

    def bandwidth_of(self, edge: Edge) -> float:
        """Capacity of a directed edge in bytes/s."""
        return self._bandwidths[self.link_id(edge)]

    @property
    def max_link_bandwidth(self) -> float:
        """The fastest directed link in the server (bytes/s).

        No single transfer, whatever its path, can exceed this rate — a
        topology-wide ceiling usable even when the path is unknown.
        """
        return max(self._bandwidths)

    def path_bandwidth(self, path: Path) -> float:
        """Uncontended bandwidth of a path (minimum edge capacity)."""
        if not path:
            raise ValueError("path must contain at least one edge")
        return min(self.bandwidth_of(edge) for edge in path)

    def _check_gpu(self, gpu: int) -> None:
        if not 0 <= gpu < self.n_gpus:
            raise ValueError(f"gpu index {gpu} out of range [0, {self.n_gpus})")

    # ------------------------------------------------------------------
    # Transfer paths
    # ------------------------------------------------------------------

    def path_to_dram(self, gpu: int) -> Path:
        """Directed edges for a GPU-to-DRAM transfer (offload direction)."""
        self._check_gpu(gpu)
        return self._to_dram[gpu]

    def path_from_dram(self, gpu: int) -> Path:
        """Directed edges for a DRAM-to-GPU transfer (upload direction)."""
        self._check_gpu(gpu)
        return self._from_dram[gpu]

    def gpu_to_gpu_path(self, src: int, dst: int) -> Path:
        """Directed edges for a GPU-to-GPU transfer.

        With GPUDirect P2P the transfer uses the direct NVLink edge.  Without
        it (commodity servers, §2.2) the data is bounced through DRAM; the
        bounce is chunk-pipelined in practice, so it is modelled as a single
        flow occupying *both* the source's upload path and the destination's
        download path simultaneously.
        """
        path = self._gpu_paths.get((src, dst))
        if path is None:
            self._check_gpu(src)
            self._check_gpu(dst)
            if src == dst:
                path = ()
            elif self.has_p2p:
                path = (self._interned(_gpu_node(src), _gpu_node(dst)),)
            else:
                path = self._to_dram[src] + self._from_dram[dst]
            self._gpu_paths[(src, dst)] = path
        return path

    def __mobius_fingerprint__(self) -> tuple:
        """Canonical content for :func:`repro.perf.fingerprint.fingerprint`.

        Covers every constructor input (the link and path tables are
        derived from these, so they need not be encoded separately).
        """
        return (
            self.gpu_spec,
            self.groups,
            self.pcie_bandwidth,
            self.dram_bandwidth,
            self.nvlink_bandwidth,
            self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(name={self.name!r}, gpus={self.n_gpus}, "
            f"groups={self.groups}, p2p={self.has_p2p})"
        )


# ----------------------------------------------------------------------
# Standard topologies from the evaluation (§4)
# ----------------------------------------------------------------------


def commodity_server(
    groups: Sequence[int], gpu_spec: GPUSpec = RTX_3090TI, *, name: str | None = None
) -> Topology:
    """A commodity GPU server: PCIe-only, no GPUDirect P2P (Figure 1a)."""
    label = name or ("Topo " + "+".join(str(g) for g in groups))
    return Topology(gpu_spec, groups, name=label)


def topo_4(gpu_spec: GPUSpec = RTX_3090TI) -> Topology:
    """Four GPUs sharing one root complex — the most contended topology."""
    return commodity_server([4], gpu_spec, name="Topo 4")


def topo_2_2(gpu_spec: GPUSpec = RTX_3090TI) -> Topology:
    """Two GPUs per root complex — the least contended 4-GPU topology."""
    return commodity_server([2, 2], gpu_spec, name="Topo 2+2")


def topo_1_3(gpu_spec: GPUSpec = RTX_3090TI) -> Topology:
    """One GPU on one root complex, three on the other."""
    return commodity_server([1, 3], gpu_spec, name="Topo 1+3")


def topo_4_4(gpu_spec: GPUSpec = RTX_3090TI) -> Topology:
    """The 8-GPU server of §4.4: four GPUs per root complex."""
    return commodity_server([4, 4], gpu_spec, name="Topo 4+4")


def datacenter_server(n_gpus: int = 4, gpu_spec: GPUSpec = V100) -> Topology:
    """An EC2 P3 style data-center server (§4.8).

    GPUs are fully connected via NVLink with GPUDirect P2P, while DRAM
    offload traffic still crosses the PCIe tree (two GPUs per root complex).
    """
    if n_gpus % 2:
        raise ValueError(f"data-center server expects an even GPU count, got {n_gpus}")
    return Topology(
        gpu_spec,
        [2] * (n_gpus // 2),
        nvlink_bandwidth=NVLINK_BW,
        name=f"DC {n_gpus}x{gpu_spec.name}",
    )
