"""Cluster mode: the translated program on real multi-process workers.

``executor_mode="cluster"`` runs stages on long-lived worker *processes*
connected over TCP -- the same plans as the in-driver executor, but with
partitions resident in worker memory and shuffle payloads moving directly
worker-to-worker (never through the driver).  With no ``cluster_address``
the context spawns a :class:`LocalCluster` of worker subprocesses on
loopback; pointing ``cluster_address`` at a host:port instead makes the
driver wait for externally started ``repro-worker`` daemons, which is the
two-terminal setup described in the README.

The example compiles a loop program once, runs it on a 2-worker cluster and
under the sequential in-driver executor, asserts the outputs are
bit-identical, and prints the cluster-side metrics: how many shuffle
payloads moved between workers, how many were served locally, and that zero
payload bytes transited the driver.

Run with:  python examples/cluster_mode.py
"""

from repro import Diablo, DistributedContext
from repro.runtime.cluster import ClusterContext

GROUP_BY = """
var C: vector[double] = vector();
for v in V do
  C[v.K] += v.A;
"""

PAGERANK_STYLE = """
var C: vector[double] = vector();
for e in E do
  C[e.Dst] += R[e.Src] / e.Deg;
"""


def run(diablo, source, **inputs):
    result = diablo.run(source, **inputs)
    return {name: dict(result.array(name)) for name in ("C",)}


def main() -> None:
    records = [{"K": i % 40, "A": float(i)} for i in range(8_000)]
    edges = [{"Src": i % 50, "Dst": (i * 7) % 50, "Deg": float(1 + i % 4)} for i in range(2_000)]
    ranks = [1.0 / 50.0] * 50

    print("== Group By: cluster (2 workers) vs sequential ==")
    cluster = ClusterContext(num_partitions=4, cluster_workers=2)
    with Diablo(cluster) as on_cluster, Diablo(DistributedContext(num_partitions=4)) as on_driver:
        grouped = run(on_cluster, GROUP_BY, V=records)
        sequential = run(on_driver, GROUP_BY, V=records)
        assert grouped == sequential, "cluster outputs must be bit-identical to sequential"
        print(f"groups: {len(grouped['C'])}, bit-identical to the sequential executor")

        metrics = cluster.metrics
        print(f"shuffle payloads fetched worker-to-worker: {metrics.worker_payload_fetches}")
        print(f"payloads served from local worker memory: {metrics.worker_payload_local_reads}")
        print(f"worker-to-worker payload bytes: {metrics.worker_payload_bytes}")
        print(f"payload bytes through the driver: {metrics.driver_payload_bytes}")
        assert metrics.driver_payload_bytes == 0, "reduce inputs must never transit the driver"
        assert metrics.cluster_fallbacks == 0, "every task batch must run on the workers"
        assert metrics.worker_payload_fetches + metrics.worker_payload_local_reads > 0

        # A second program on the same cluster: the workers are long-lived,
        # so there is no per-run process spawn cost.
        print("\n== PageRank-style update on the same workers ==")
        ranked = run(on_cluster, PAGERANK_STYLE, E=edges, R=ranks)
        sequential = run(on_driver, PAGERANK_STYLE, E=edges, R=ranks)
        assert ranked == sequential
        print(f"rank entries: {len(ranked['C'])}, still bit-identical")

    # The config route: executor_mode="cluster" in DiabloConfig builds the
    # same backend through DistributedContext.from_config.
    print("\n== Config plumbing ==")
    from repro import DiabloConfig

    context = DiabloConfig(executor_mode="cluster", cluster_workers=2, num_partitions=4).make_context()
    try:
        assert isinstance(context, ClusterContext)
        total = context.parallelize(range(1_000)).map(lambda x: x * 2).sum()
        assert total == 999_000
        print("DiabloConfig(executor_mode='cluster') -> ClusterContext, sum checks out")
    finally:
        context.shutdown()


if __name__ == "__main__":
    main()
