"""The lazy fusing engine: a chain of narrow operations runs as one pass.

The example chains map→filter→map over a dataset and shows that chaining
materializes nothing, and that forcing the chain runs a single fused
per-partition pass covering all three operators.

Run with:  python examples/lazy_fusion.py
"""

from repro import DistributedContext


def main() -> None:
    print("== One fused pass for a three-operator chain ==")
    with DistributedContext(num_partitions=4) as ctx:
        base = ctx.parallelize(range(10_000)).materialize()
        ctx.metrics.reset()
        chain = base.map(lambda x: x + 1).filter(lambda x: x % 2 == 0).map(lambda x: x * 10)
        print(f"datasets materialized after chaining: {ctx.metrics.datasets_created}")
        total = chain.sum()
        print(
            f"after forcing: fused_stages={ctx.metrics.fused_stages}, "
            f"fused_operators={ctx.metrics.fused_operators}, "
            f"datasets_created={ctx.metrics.datasets_created}, sum={total}"
        )
        assert ctx.metrics.fused_stages == 1 and ctx.metrics.fused_operators == 3


if __name__ == "__main__":
    main()
