//! A deterministic, scale-factor-parameterized TPC-H data generator.
//!
//! Faithful to `dbgen` in schema, cardinalities, key structure, value
//! domains and the distributions the 22 queries depend on. Two documented
//! deviations keep tiny scale factors useful (DESIGN.md):
//!
//! - the `Customer%Complaints` supplier-comment marker (Q16) is planted at
//!   a 1% rate instead of 0.05%, and the `special%requests` order-comment
//!   marker (Q13) at 10%, so the predicates stay selective-but-nonempty at
//!   SF < 0.1;
//! - order keys are dense (`1..=N`) rather than dbgen's sparse 8-of-32
//!   layout; no query result depends on key sparsity.
//!
//! All money amounts are fixed-point **cents** (`i64`), the representation
//! both engines share; dates are days since 1970-01-01 (see
//! [`crate::calendar`]).

use crate::calendar::{to_days, Date};
use crate::prng::Pcg32;
use crate::text;

/// Money in cents.
pub type Money = i64;

/// Days since 1970-01-01.
pub type Day = i32;

/// dbgen's CURRENTDATE constant, used to derive flags/status.
pub fn current_date() -> Day {
    to_days(Date::new(1995, 6, 17)).expect("in range")
}

/// First order date.
pub fn start_date() -> Day {
    to_days(Date::new(1992, 1, 1)).expect("in range")
}

/// Last order date (ENDDATE - 151 days, so receipt dates stay in range).
pub fn last_order_date() -> Day {
    to_days(Date::new(1998, 8, 2)).expect("in range")
}

#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    pub r_regionkey: i64,
    pub r_name: String,
    pub r_comment: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Nation {
    pub n_nationkey: i64,
    pub n_name: String,
    pub n_regionkey: i64,
    pub n_comment: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Supplier {
    pub s_suppkey: i64,
    pub s_name: String,
    pub s_address: String,
    pub s_nationkey: i64,
    pub s_phone: String,
    pub s_acctbal: Money,
    pub s_comment: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Part {
    pub p_partkey: i64,
    pub p_name: String,
    pub p_mfgr: String,
    pub p_brand: String,
    pub p_type: String,
    pub p_size: i64,
    pub p_container: String,
    pub p_retailprice: Money,
    pub p_comment: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct PartSupp {
    pub ps_partkey: i64,
    pub ps_suppkey: i64,
    pub ps_availqty: i64,
    pub ps_supplycost: Money,
    pub ps_comment: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Customer {
    pub c_custkey: i64,
    pub c_name: String,
    pub c_address: String,
    pub c_nationkey: i64,
    pub c_phone: String,
    pub c_acctbal: Money,
    pub c_mktsegment: String,
    pub c_comment: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Order {
    pub o_orderkey: i64,
    pub o_custkey: i64,
    pub o_orderstatus: String,
    pub o_totalprice: Money,
    pub o_orderdate: Day,
    pub o_orderpriority: String,
    pub o_clerk: String,
    pub o_shippriority: i64,
    pub o_comment: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct LineItem {
    pub l_orderkey: i64,
    pub l_partkey: i64,
    pub l_suppkey: i64,
    pub l_linenumber: i64,
    pub l_quantity: i64,
    pub l_extendedprice: Money,
    pub l_discount: Money, // hundredths: 0..=10 represents 0.00..=0.10
    pub l_tax: Money,      // hundredths: 0..=8
    pub l_returnflag: String,
    pub l_linestatus: String,
    pub l_shipdate: Day,
    pub l_commitdate: Day,
    pub l_receiptdate: Day,
    pub l_shipinstruct: String,
    pub l_shipmode: String,
    pub l_comment: String,
}

/// The eight TPC-H base tables at one scale factor.
#[derive(Debug, Clone, Default)]
pub struct TpchData {
    pub region: Vec<Region>,
    pub nation: Vec<Nation>,
    pub supplier: Vec<Supplier>,
    pub part: Vec<Part>,
    pub partsupp: Vec<PartSupp>,
    pub customer: Vec<Customer>,
    pub orders: Vec<Order>,
    pub lineitem: Vec<LineItem>,
}

impl TpchData {
    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.region.len()
            + self.nation.len()
            + self.supplier.len()
            + self.part.len()
            + self.partsupp.len()
            + self.customer.len()
            + self.orders.len()
            + self.lineitem.len()
    }
}

pub const REGIONS: &[&str] = &["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// The 25 nations with their official region assignment.
pub const NATIONS: &[(&str, i64)] = &[
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

pub const SEGMENTS: &[&str] = &["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];

pub const PRIORITIES: &[&str] = &["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

pub const SHIP_INSTRUCT: &[&str] =
    &["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"];

pub const SHIP_MODES: &[&str] = &["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

pub const TYPE_SYLLABLE_1: &[&str] =
    &["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
pub const TYPE_SYLLABLE_2: &[&str] = &["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
pub const TYPE_SYLLABLE_3: &[&str] = &["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

pub const CONTAINER_SYLLABLE_1: &[&str] = &["SM", "MED", "LG", "JUMBO", "WRAP"];
pub const CONTAINER_SYLLABLE_2: &[&str] =
    &["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];

/// The official retail price formula, in cents.
pub fn retail_price(partkey: i64) -> Money {
    90_000 + ((partkey / 10) % 20_001) + 100 * (partkey % 1_000)
}

/// The official part-to-supplier distribution formula.
pub fn partsupp_suppkey(partkey: i64, i: i64, supplier_count: i64) -> i64 {
    let s = supplier_count;
    (partkey + i * (s / 4 + (partkey - 1) / s)) % s + 1
}

/// Deterministic TPC-H generator.
///
/// ```
/// use sqalpel_datagen::tpch::TpchGen;
///
/// let data = TpchGen::new(0.001, 42).generate();
/// assert_eq!(data.region.len(), 5);
/// assert_eq!(data.nation.len(), 25);
/// assert_eq!(data.supplier.len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct TpchGen {
    sf: f64,
    seed: u64,
}

impl TpchGen {
    /// A generator for scale factor `sf` (1.0 ≈ 8.66M rows) and RNG seed.
    pub fn new(sf: f64, seed: u64) -> Self {
        assert!(sf > 0.0, "scale factor must be positive");
        TpchGen { sf, seed }
    }

    fn scaled(&self, base: u64) -> i64 {
        ((base as f64 * self.sf).round() as i64).max(1)
    }

    pub fn supplier_count(&self) -> i64 {
        self.scaled(10_000)
    }

    pub fn part_count(&self) -> i64 {
        self.scaled(200_000)
    }

    pub fn customer_count(&self) -> i64 {
        self.scaled(150_000)
    }

    pub fn order_count(&self) -> i64 {
        self.scaled(1_500_000)
    }

    fn rng(&self, stream: u64) -> Pcg32 {
        Pcg32::new(self.seed, stream)
    }

    /// Generate all eight tables.
    pub fn generate(&self) -> TpchData {
        let (orders, lineitem) = self.orders_and_lineitems();
        TpchData {
            region: self.region(),
            nation: self.nation(),
            supplier: self.supplier(),
            part: self.part(),
            partsupp: self.partsupp(),
            customer: self.customer(),
            orders,
            lineitem,
        }
    }

    /// Generate orders and lineitems together (they are correlated: the
    /// order's status and total price are derived from its line items).
    pub fn orders_and_lineitems(&self) -> (Vec<Order>, Vec<LineItem>) {
        let mut rng = self.rng(7);
        let n_orders = self.order_count();
        let n_cust = self.customer_count();
        let n_part = self.part_count();
        let n_supp = self.supplier_count();
        let current = current_date();
        let mut orders = Vec::with_capacity(n_orders as usize);
        let mut items = Vec::new();
        for okey in 1..=n_orders {
            // Customers divisible by 3 never order (official rule) unless
            // the population is too small to allow skipping.
            let custkey = loop {
                let c = rng.range_i64(1, n_cust);
                if c % 3 != 0 || n_cust < 3 {
                    break c;
                }
            };
            let orderdate = rng.range_i64(start_date() as i64, last_order_date() as i64) as Day;
            let lines = rng.range_i64(1, 7);
            let mut total: Money = 0;
            let mut all_f = true;
            let mut all_o = true;
            for line in 1..=lines {
                let partkey = rng.range_i64(1, n_part);
                let suppkey = partsupp_suppkey(partkey, rng.range_i64(0, 3), n_supp);
                let quantity = rng.range_i64(1, 50);
                let extendedprice = quantity * retail_price(partkey);
                let discount = rng.range_i64(0, 10);
                let tax = rng.range_i64(0, 8);
                let shipdate = orderdate + rng.range_i64(1, 121) as Day;
                let commitdate = orderdate + rng.range_i64(30, 90) as Day;
                let receiptdate = shipdate + rng.range_i64(1, 30) as Day;
                let returnflag = if receiptdate <= current {
                    if rng.chance(0.5) {
                        "R"
                    } else {
                        "A"
                    }
                } else {
                    "N"
                };
                let linestatus = if shipdate > current { "O" } else { "F" };
                all_f &= linestatus == "F";
                all_o &= linestatus == "O";
                // charge = extprice * (1 - disc) * (1 + tax), in cents.
                let charge = extendedprice as f64 * (1.0 - discount as f64 / 100.0)
                    * (1.0 + tax as f64 / 100.0);
                total += charge.round() as Money;
                items.push(LineItem {
                    l_orderkey: okey,
                    l_partkey: partkey,
                    l_suppkey: suppkey,
                    l_linenumber: line,
                    l_quantity: quantity,
                    l_extendedprice: extendedprice,
                    l_discount: discount,
                    l_tax: tax,
                    l_returnflag: returnflag.to_string(),
                    l_linestatus: linestatus.to_string(),
                    l_shipdate: shipdate,
                    l_commitdate: commitdate,
                    l_receiptdate: receiptdate,
                    l_shipinstruct: rng.pick_str(SHIP_INSTRUCT).to_string(),
                    l_shipmode: rng.pick_str(SHIP_MODES).to_string(),
                    l_comment: text::comment(&mut rng, 44),
                });
            }
            let status = if all_f {
                "F"
            } else if all_o {
                "O"
            } else {
                "P"
            };
            let comment = if rng.chance(0.10) {
                text::comment_with_marker(&mut rng, 79, "special", "requests")
            } else {
                text::comment(&mut rng, 79)
            };
            orders.push(Order {
                o_orderkey: okey,
                o_custkey: custkey,
                o_orderstatus: status.to_string(),
                o_totalprice: total,
                o_orderdate: orderdate,
                o_orderpriority: rng.pick_str(PRIORITIES).to_string(),
                o_clerk: format!("Clerk#{:09}", rng.range_i64(1, self.scaled(1_000))),
                o_shippriority: 0,
                o_comment: comment,
            });
        }
        (orders, items)
    }

    pub fn region(&self) -> Vec<Region> {
        let mut rng = self.rng(1);
        REGIONS
            .iter()
            .enumerate()
            .map(|(i, name)| Region {
                r_regionkey: i as i64,
                r_name: name.to_string(),
                r_comment: text::comment(&mut rng, 152),
            })
            .collect()
    }

    pub fn nation(&self) -> Vec<Nation> {
        let mut rng = self.rng(2);
        NATIONS
            .iter()
            .enumerate()
            .map(|(i, (name, region))| Nation {
                n_nationkey: i as i64,
                n_name: name.to_string(),
                n_regionkey: *region,
                n_comment: text::comment(&mut rng, 152),
            })
            .collect()
    }

    pub fn supplier(&self) -> Vec<Supplier> {
        let mut rng = self.rng(3);
        (1..=self.supplier_count())
            .map(|key| {
                let nationkey = rng.range_i64(0, 24);
                // Planted complaint/recommendation markers for Q16-style
                // predicates (see module docs for the rate deviation).
                let comment = if key % 100 == 3 {
                    text::comment_with_marker(&mut rng, 101, "Customer", "Complaints")
                } else if key % 100 == 53 {
                    text::comment_with_marker(&mut rng, 101, "Customer", "Recommends")
                } else {
                    text::comment(&mut rng, 101)
                };
                Supplier {
                    s_suppkey: key,
                    s_name: format!("Supplier#{key:09}"),
                    s_address: text::v_string(&mut rng, 10, 40),
                    s_nationkey: nationkey,
                    s_phone: text::phone(&mut rng, nationkey),
                    s_acctbal: rng.range_i64(-99_999, 999_999),
                    s_comment: comment,
                }
            })
            .collect()
    }

    pub fn part(&self) -> Vec<Part> {
        let mut rng = self.rng(4);
        (1..=self.part_count())
            .map(|key| {
                let mfgr = rng.range_i64(1, 5);
                let brand = mfgr * 10 + rng.range_i64(1, 5);
                let p_type = format!(
                    "{} {} {}",
                    rng.pick_str(TYPE_SYLLABLE_1),
                    rng.pick_str(TYPE_SYLLABLE_2),
                    rng.pick_str(TYPE_SYLLABLE_3)
                );
                let container = format!(
                    "{} {}",
                    rng.pick_str(CONTAINER_SYLLABLE_1),
                    rng.pick_str(CONTAINER_SYLLABLE_2)
                );
                Part {
                    p_partkey: key,
                    p_name: text::part_name(&mut rng),
                    p_mfgr: format!("Manufacturer#{mfgr}"),
                    p_brand: format!("Brand#{brand}"),
                    p_type,
                    p_size: rng.range_i64(1, 50),
                    p_container: container,
                    p_retailprice: retail_price(key),
                    p_comment: text::comment(&mut rng, 22),
                }
            })
            .collect()
    }

    pub fn partsupp(&self) -> Vec<PartSupp> {
        let mut rng = self.rng(5);
        let n_supp = self.supplier_count();
        let mut out = Vec::with_capacity(self.part_count() as usize * 4);
        for partkey in 1..=self.part_count() {
            for i in 0..4 {
                out.push(PartSupp {
                    ps_partkey: partkey,
                    ps_suppkey: partsupp_suppkey(partkey, i, n_supp),
                    ps_availqty: rng.range_i64(1, 9_999),
                    ps_supplycost: rng.range_i64(100, 100_000),
                    ps_comment: text::comment(&mut rng, 199),
                });
            }
        }
        out
    }

    pub fn customer(&self) -> Vec<Customer> {
        let mut rng = self.rng(6);
        (1..=self.customer_count())
            .map(|key| {
                let nationkey = rng.range_i64(0, 24);
                Customer {
                    c_custkey: key,
                    c_name: format!("Customer#{key:09}"),
                    c_address: text::v_string(&mut rng, 10, 40),
                    c_nationkey: nationkey,
                    c_phone: text::phone(&mut rng, nationkey),
                    c_acctbal: rng.range_i64(-99_999, 999_999),
                    c_mktsegment: rng.pick_str(SEGMENTS).to_string(),
                    c_comment: text::comment(&mut rng, 117),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn gen() -> TpchGen {
        TpchGen::new(0.001, 42)
    }

    #[test]
    fn cardinalities_follow_scale_factor() {
        let g = gen();
        let d = g.generate();
        assert_eq!(d.region.len(), 5);
        assert_eq!(d.nation.len(), 25);
        assert_eq!(d.supplier.len(), 10);
        assert_eq!(d.part.len(), 200);
        assert_eq!(d.partsupp.len(), 800);
        assert_eq!(d.customer.len(), 150);
        assert_eq!(d.orders.len(), 1500);
        // 1..7 lines per order.
        assert!(d.lineitem.len() >= d.orders.len());
        assert!(d.lineitem.len() <= d.orders.len() * 7);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen().generate();
        let b = gen().generate();
        assert_eq!(a.lineitem, b.lineitem);
        assert_eq!(a.supplier, b.supplier);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TpchGen::new(0.001, 1).generate();
        let b = TpchGen::new(0.001, 2).generate();
        assert_ne!(a.lineitem, b.lineitem);
    }

    #[test]
    fn keys_are_dense_and_unique() {
        let d = gen().generate();
        let keys: HashSet<i64> = d.orders.iter().map(|o| o.o_orderkey).collect();
        assert_eq!(keys.len(), d.orders.len());
        assert!(d.part.iter().enumerate().all(|(i, p)| p.p_partkey == i as i64 + 1));
    }

    #[test]
    fn foreign_keys_are_valid() {
        let d = gen().generate();
        let n_supp = d.supplier.len() as i64;
        let n_part = d.part.len() as i64;
        let n_cust = d.customer.len() as i64;
        for ps in &d.partsupp {
            assert!((1..=n_supp).contains(&ps.ps_suppkey));
            assert!((1..=n_part).contains(&ps.ps_partkey));
        }
        for o in &d.orders {
            assert!((1..=n_cust).contains(&o.o_custkey));
        }
        for l in &d.lineitem {
            assert!((1..=n_part).contains(&l.l_partkey));
            assert!((1..=n_supp).contains(&l.l_suppkey));
        }
        for n in &d.nation {
            assert!((0..5).contains(&n.n_regionkey));
        }
    }

    #[test]
    fn lineitem_supplier_matches_partsupp() {
        // Every (l_partkey, l_suppkey) pair must exist in partsupp, or the
        // Q9/Q20 joins silently lose rows.
        let d = gen().generate();
        let pairs: HashSet<(i64, i64)> = d
            .partsupp
            .iter()
            .map(|ps| (ps.ps_partkey, ps.ps_suppkey))
            .collect();
        for l in &d.lineitem {
            assert!(
                pairs.contains(&(l.l_partkey, l.l_suppkey)),
                "({}, {}) not in partsupp",
                l.l_partkey,
                l.l_suppkey
            );
        }
    }

    #[test]
    fn date_invariants_hold() {
        let d = gen().generate();
        let by_key: std::collections::HashMap<i64, &Order> =
            d.orders.iter().map(|o| (o.o_orderkey, o)).collect();
        for l in &d.lineitem {
            let o = by_key[&l.l_orderkey];
            assert!(l.l_shipdate > o.o_orderdate);
            assert!(l.l_receiptdate > l.l_shipdate);
            assert!(l.l_commitdate >= o.o_orderdate + 30);
        }
    }

    #[test]
    fn status_flags_consistent_with_dates() {
        let d = gen().generate();
        let current = current_date();
        for l in &d.lineitem {
            if l.l_shipdate > current {
                assert_eq!(l.l_linestatus, "O");
                assert_eq!(l.l_returnflag, "N");
            } else {
                assert_eq!(l.l_linestatus, "F");
            }
            if l.l_receiptdate <= current {
                assert!(l.l_returnflag == "R" || l.l_returnflag == "A");
            }
        }
    }

    #[test]
    fn totalprice_matches_lineitems() {
        let d = gen().generate();
        let mut sums: std::collections::HashMap<i64, f64> = std::collections::HashMap::new();
        for l in &d.lineitem {
            let charge = l.l_extendedprice as f64 * (1.0 - l.l_discount as f64 / 100.0)
                * (1.0 + l.l_tax as f64 / 100.0);
            *sums.entry(l.l_orderkey).or_default() += charge.round();
        }
        for o in &d.orders {
            let expect = sums[&o.o_orderkey];
            assert!(
                (o.o_totalprice as f64 - expect).abs() < 1.0,
                "order {} total {} != {}",
                o.o_orderkey,
                o.o_totalprice,
                expect
            );
        }
    }

    #[test]
    fn customers_divisible_by_three_have_no_orders() {
        let d = TpchGen::new(0.01, 7).generate();
        for o in &d.orders {
            assert_ne!(o.o_custkey % 3, 0);
        }
    }

    #[test]
    fn query_critical_values_present() {
        let d = TpchGen::new(0.01, 42).generate();
        // Q16's anti-join subquery must be non-empty at SF 0.01.
        assert!(d
            .supplier
            .iter()
            .any(|s| s.s_comment.contains("Customer") && s.s_comment.contains("Complaints")));
        // Q13's excluded comment pattern must appear.
        assert!(d
            .orders
            .iter()
            .any(|o| o.o_comment.contains("special") && o.o_comment.contains("requests")));
        // Market segments cover Q3's BUILDING.
        assert!(d.customer.iter().any(|c| c.c_mktsegment == "BUILDING"));
        // Part types cover Q8's exact match.
        assert!(d.part.iter().any(|p| p.p_type == "ECONOMY ANODIZED STEEL"));
    }

    #[test]
    fn retail_price_formula() {
        assert_eq!(retail_price(1), 90_000 + 100);
        assert_eq!(retail_price(1000), (90_000 + 100));
    }

    #[test]
    fn partsupp_suppkey_in_range() {
        for pk in 1..=500 {
            for i in 0..4 {
                let sk = partsupp_suppkey(pk, i, 100);
                assert!((1..=100).contains(&sk));
            }
        }
    }

    #[test]
    #[should_panic(expected = "scale factor must be positive")]
    fn zero_scale_factor_rejected() {
        TpchGen::new(0.0, 1);
    }
}
