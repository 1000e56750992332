"""Star Schema Benchmark (SSB) data generator.

SSB (O'Neil et al., 2009) is TPC-H with ``lineitem``/``orders`` merged into a
``lineorder`` fact table and four dimensions: ``date``, ``customer``,
``supplier`` and ``part``.  Real cardinalities:

===========  ======================  =======================
table        real rows               generated rows (capped)
===========  ======================  =======================
lineorder    6,000,000 x SF          min(6000 x SF, 60,000)
customer     30,000 x SF             min(600 x SF, 3,000)
supplier     2,000 x SF              min(200 x SF, 2,000)
part         200,000 x (1+log2 SF)   min(800 x (1+log2 SF), 2,400)
date         2,556                   2,555 (7 x 365)
===========  ======================  =======================

The per-table ``row_weight`` (real/generated) makes simulated charges match
paper-scale volumes; value *distributions* (25 nations in 5 regions, 10
cities per nation, uniform foreign keys) follow the SSB spec so that
selectivities and join fan-outs are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.data.rng import make_rng
from repro.storage.schema import Column, Schema
from repro.storage.table import Table

#: The five SSB regions, each with five nations.
SSB_REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")

SSB_NATIONS = (
    # AFRICA
    "ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE",
    # AMERICA
    "ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES",
    # ASIA
    "CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM",
    # EUROPE
    "FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM",
    # MIDDLE EAST
    "EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA",
)

#: Cities per nation (SSB spec: ten, named <nation prefix><digit>).
CITIES_PER_NATION = 10

YEARS = tuple(range(1992, 1999))  # 1992..1998

_REGION_OF_NATION = {n: SSB_REGIONS[i // 5] for i, n in enumerate(SSB_NATIONS)}


def nation_region(nation: str) -> str:
    return _REGION_OF_NATION[nation]


def nation_cities(nation: str) -> tuple[str, ...]:
    prefix = nation[:9].ljust(9, " ")
    return tuple(f"{prefix}{k}" for k in range(CITIES_PER_NATION))


ALL_CITIES = tuple(c for n in SSB_NATIONS for c in nation_cities(n))


# ---------------------------------------------------------------------------
# Schemas (row_bytes are real on-disk widths; SF=30 totals ~21 GB as in the
# paper's "scanning all tables reads 21GB").
# ---------------------------------------------------------------------------

LINEORDER_SCHEMA = Schema(
    [
        Column("lo_orderkey"),
        Column("lo_custkey"),
        Column("lo_suppkey"),
        Column("lo_partkey"),
        Column("lo_orderdate"),
        Column("lo_quantity"),
        Column("lo_extendedprice", "float"),
        Column("lo_discount", "float"),
        Column("lo_revenue", "float"),
        Column("lo_supplycost", "float"),
    ],
    row_bytes=100.0,
)

CUSTOMER_SCHEMA = Schema(
    [
        Column("c_custkey"),
        Column("c_name", "str"),
        Column("c_city", "str"),
        Column("c_nation", "str"),
        Column("c_region", "str"),
    ],
    row_bytes=140.0,
)

SUPPLIER_SCHEMA = Schema(
    [
        Column("s_suppkey"),
        Column("s_name", "str"),
        Column("s_city", "str"),
        Column("s_nation", "str"),
        Column("s_region", "str"),
    ],
    row_bytes=140.0,
)

PART_SCHEMA = Schema(
    [
        Column("p_partkey"),
        Column("p_name", "str"),
        Column("p_mfgr", "str"),
        Column("p_category", "str"),
        Column("p_brand1", "str"),
    ],
    row_bytes=150.0,
)

DATE_SCHEMA = Schema(
    [
        Column("d_datekey"),
        Column("d_year"),
        Column("d_yearmonthnum"),
        Column("d_weeknuminyear"),
    ],
    row_bytes=100.0,
)


@dataclass(frozen=True)
class SsbDataset:
    """One generated SSB database."""

    sf: float
    seed: int
    lineorder: Table
    customer: Table
    supplier: Table
    part: Table
    date: Table

    @property
    def tables(self) -> dict[str, Table]:
        return {
            "lineorder": self.lineorder,
            "customer": self.customer,
            "supplier": self.supplier,
            "part": self.part,
            "date": self.date,
        }

    @property
    def real_bytes(self) -> float:
        return sum(t.real_bytes for t in self.tables.values())


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _gen_rows(real: float, base: float, cap: float, sf: float) -> tuple[int, float]:
    """(generated row count, row weight) for a table of ``real`` real rows."""
    gen = int(min(max(base * sf, base), cap))
    return gen, real / gen


def _log2_factor(sf: float) -> float:
    import math

    return 1.0 + (math.log2(sf) if sf > 1 else 0.0)


def _make_date() -> Table:
    rows = []
    for year in YEARS:
        for day in range(365):
            month = day // 31 + 1  # 12 approximate months
            datekey = year * 10000 + month * 100 + (day % 31 + 1)
            rows.append((datekey, year, year * 100 + month, day // 7 + 1))
    # real date table has 2556 rows; we generate 2555, weight ~1.
    return Table("date", DATE_SCHEMA, rows, row_weight=2556.0 / len(rows))


def _make_customer(sf: float, seed: int) -> Table:
    rng = make_rng(seed, "customer")
    gen, weight = _gen_rows(30_000 * sf, 600, 3_000, sf)
    rows = []
    for key in range(1, gen + 1):
        nation = SSB_NATIONS[rng.randrange(len(SSB_NATIONS))]
        city = nation_cities(nation)[rng.randrange(CITIES_PER_NATION)]
        rows.append((key, f"Customer#{key:09d}", city, nation, nation_region(nation)))
    return Table("customer", CUSTOMER_SCHEMA, rows, row_weight=weight)


def _make_supplier(sf: float, seed: int) -> Table:
    rng = make_rng(seed, "supplier")
    gen, weight = _gen_rows(2_000 * sf, 200, 2_000, sf)
    rows = []
    for key in range(1, gen + 1):
        nation = SSB_NATIONS[rng.randrange(len(SSB_NATIONS))]
        city = nation_cities(nation)[rng.randrange(CITIES_PER_NATION)]
        rows.append((key, f"Supplier#{key:09d}", city, nation, nation_region(nation)))
    return Table("supplier", SUPPLIER_SCHEMA, rows, row_weight=weight)


def _make_part(sf: float, seed: int) -> Table:
    rng = make_rng(seed, "part")
    factor = _log2_factor(sf)
    gen, weight = _gen_rows(200_000 * factor, 800 * factor, 2_400, max(sf, 1.0))
    rows = []
    for key in range(1, gen + 1):
        mfgr_num = rng.randrange(1, 6)
        cat_num = rng.randrange(1, 6)
        brand_num = rng.randrange(1, 41)
        mfgr = f"MFGR#{mfgr_num}"
        category = f"MFGR#{mfgr_num}{cat_num}"
        brand = f"{category}{brand_num:02d}"
        rows.append((key, f"Part#{key:07d}", mfgr, category, brand))
    return Table("part", PART_SCHEMA, rows, row_weight=weight)


def _make_lineorder(
    sf: float, seed: int, customer: Table, supplier: Table, part: Table, date: Table
) -> Table:
    rng = make_rng(seed, "lineorder")
    gen, weight = _gen_rows(6_000_000 * sf, 6_000, 60_000, sf)
    datekeys = [row[0] for row in date.iter_rows()]
    ncust, nsupp, npart, ndate = len(customer), len(supplier), len(part), len(datekeys)
    rows = []
    randrange = rng.randrange
    for key in range(1, gen + 1):
        quantity = randrange(1, 51)
        extendedprice = float(randrange(90_000, 1_100_000)) / 100.0
        discount = float(randrange(0, 11))
        revenue = extendedprice * (100.0 - discount) / 100.0
        rows.append(
            (
                key,
                randrange(1, ncust + 1),
                randrange(1, nsupp + 1),
                randrange(1, npart + 1),
                datekeys[randrange(ndate)],
                quantity,
                extendedprice,
                discount,
                revenue,
                extendedprice * 0.6,
            )
        )
    return Table("lineorder", LINEORDER_SCHEMA, rows, row_weight=weight)


def generate_ssb(sf: float = 1.0, seed: int = 42) -> SsbDataset:
    """Generate (and memoize) an SSB database at scale factor ``sf``.

    Tables are immutable, so the cached dataset is safe to share across
    simulation runs (the memo is keyed positionally, so keyword and
    positional calls share one build)."""
    return _generate_ssb(sf, seed)


@lru_cache(maxsize=8)
def _generate_ssb(sf: float, seed: int) -> SsbDataset:
    if sf <= 0:
        raise ValueError("scale factor must be positive")
    date = _make_date()
    customer = _make_customer(sf, seed)
    supplier = _make_supplier(sf, seed)
    part = _make_part(sf, seed)
    lineorder = _make_lineorder(sf, seed, customer, supplier, part, date)
    return SsbDataset(
        sf=sf,
        seed=seed,
        lineorder=lineorder,
        customer=customer,
        supplier=supplier,
        part=part,
        date=date,
    )
