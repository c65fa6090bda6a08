"""Inspecting HIQUE's code generation: plans, templates, O0 vs O2.

Shows, for one join + aggregation query:

* the optimizer's operator-descriptor list (the paper's list O);
* the full generated Python module at O2 (inlined predicates, direct
  field unpacking) and the generic O0 variant;
* the per-stage preparation cost (the paper's Table III measurements).

Run with::

    python examples/codegen_inspection.py
"""

from repro import Column, DOUBLE, Database, INT, char
from repro.core import OPT_O0, OPT_O2


def main() -> None:
    db = Database()
    db.create_table(
        "orders_t",
        [Column("okey", INT), Column("ckey", INT), Column("total", DOUBLE)],
    )
    db.create_table(
        "customer_t",
        [Column("ckey", INT), Column("segment", char(10))],
    )
    db.load_rows(
        "orders_t", ((i, i % 500, float(i % 97)) for i in range(5_000))
    )
    db.load_rows(
        "customer_t", ((i, f"seg{i % 5}") for i in range(500))
    )
    db.analyze()

    sql = (
        "SELECT c.segment, sum(o.total) AS revenue, count(*) AS n "
        "FROM orders_t o, customer_t c "
        "WHERE o.ckey = c.ckey AND o.total > 10 "
        "GROUP BY c.segment ORDER BY revenue DESC"
    )

    print("=" * 70)
    print("Operator descriptors (the topologically sorted list O):")
    print("=" * 70)
    print(db.explain(sql))

    engine = db.engine("hique")
    print()
    print("=" * 70)
    print("Generated module at O2 (holistic: everything inlined):")
    print("=" * 70)
    print(engine.generate_source(sql, opt_level=OPT_O2))

    print("=" * 70)
    print("The same plan at O0 (generic helper calls left in):")
    print("=" * 70)
    print(engine.generate_source(sql, opt_level=OPT_O0))

    print("=" * 70)
    print("Preparation cost (Table III measurements):")
    print("=" * 70)
    prepared = engine.prepare(sql)
    timings = prepared.timings
    print(f"parse     {timings.parse_seconds * 1000:8.3f} ms")
    print(f"optimize  {timings.optimize_seconds * 1000:8.3f} ms")
    print(f"generate  {timings.generate_seconds * 1000:8.3f} ms")
    print(f"compile   {timings.compile_seconds * 1000:8.3f} ms")
    print(f"source    {prepared.compiled.source_bytes:8d} bytes")
    print(f"compiled  {prepared.compiled.compiled_bytes:8d} bytes")

    rows = engine.execute_prepared(prepared)
    print()
    print(f"Result ({len(rows)} groups): {rows[:3]} ...")


if __name__ == "__main__":
    main()
