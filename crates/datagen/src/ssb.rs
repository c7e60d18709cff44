//! Star Schema Benchmark (SSB) derivation.
//!
//! The paper's demo bootstraps sqalpel with projects "inspired by TPC-H,
//! SSBM, airtraffic". SSB is O'Neil et al.'s star-schema rework of TPC-H:
//! the `orders`/`lineitem` pair is denormalized into a `lineorder` fact
//! table and a `date` dimension is added. We derive both from
//! [`crate::tpch::TpchData`] exactly that way.

use crate::calendar::{from_days, to_days, Date};
use crate::tpch::{Day, Money, TpchData};

/// One row of the SSB `date` dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct DateDim {
    pub d_datekey: Day,
    pub d_date: String,
    pub d_year: i64,
    pub d_month: i64,
    pub d_yearmonthnum: i64,
    pub d_weeknuminyear: i64,
    pub d_sellingseason: String,
}

/// One row of the SSB `lineorder` fact table.
#[derive(Debug, Clone, PartialEq)]
pub struct LineOrder {
    pub lo_orderkey: i64,
    pub lo_linenumber: i64,
    pub lo_custkey: i64,
    pub lo_partkey: i64,
    pub lo_suppkey: i64,
    pub lo_orderdate: Day,
    pub lo_orderpriority: String,
    pub lo_quantity: i64,
    pub lo_extendedprice: Money,
    pub lo_discount: Money,
    pub lo_revenue: Money,
    pub lo_supplycost: Money,
}

/// The SSB star schema: the fact table plus the date dimension. The
/// customer/supplier/part dimensions are shared with the TPC-H tables.
#[derive(Debug, Clone, Default)]
pub struct SsbData {
    pub date_dim: Vec<DateDim>,
    pub lineorder: Vec<LineOrder>,
}

/// Selling season per SSB: Christmas (Nov–Dec), Summer (May–Aug),
/// Winter (Jan–Feb), Spring (Mar–Apr), Fall (Sep–Oct).
pub fn selling_season(month: u32) -> &'static str {
    match month {
        11 | 12 => "Christmas",
        5..=8 => "Summer",
        1 | 2 => "Winter",
        3 | 4 => "Spring",
        _ => "Fall",
    }
}

/// Build the date dimension for the TPC-H date range (1992-01-01 to
/// 1998-12-31), one row per day.
pub fn date_dimension() -> Vec<DateDim> {
    let start = to_days(Date::new(1992, 1, 1)).expect("in range");
    let end = to_days(Date::new(1998, 12, 31)).expect("in range");
    (start..=end)
        .map(|days| {
            let d = from_days(days);
            let day_of_year = days - to_days(Date::new(d.year, 1, 1)).expect("in range") + 1;
            DateDim {
                d_datekey: days,
                d_date: crate::calendar::format_days(days),
                d_year: d.year as i64,
                d_month: d.month as i64,
                d_yearmonthnum: d.year as i64 * 100 + d.month as i64,
                d_weeknuminyear: ((day_of_year - 1) / 7 + 1) as i64,
                d_sellingseason: selling_season(d.month).to_string(),
            }
        })
        .collect()
}

/// Derive the SSB star schema from a generated TPC-H database.
pub fn from_tpch(tpch: &TpchData) -> SsbData {
    let orders: std::collections::HashMap<i64, &crate::tpch::Order> =
        tpch.orders.iter().map(|o| (o.o_orderkey, o)).collect();
    // ps_supplycost lookup for (partkey, suppkey).
    let supplycost: std::collections::HashMap<(i64, i64), Money> = tpch
        .partsupp
        .iter()
        .map(|ps| ((ps.ps_partkey, ps.ps_suppkey), ps.ps_supplycost))
        .collect();
    let lineorder = tpch
        .lineitem
        .iter()
        .map(|l| {
            let o = orders[&l.l_orderkey];
            let revenue =
                (l.l_extendedprice as f64 * (1.0 - l.l_discount as f64 / 100.0)).round() as Money;
            LineOrder {
                lo_orderkey: l.l_orderkey,
                lo_linenumber: l.l_linenumber,
                lo_custkey: o.o_custkey,
                lo_partkey: l.l_partkey,
                lo_suppkey: l.l_suppkey,
                lo_orderdate: o.o_orderdate,
                lo_orderpriority: o.o_orderpriority.clone(),
                lo_quantity: l.l_quantity,
                lo_extendedprice: l.l_extendedprice,
                lo_discount: l.l_discount,
                lo_revenue: revenue,
                lo_supplycost: supplycost
                    .get(&(l.l_partkey, l.l_suppkey))
                    .copied()
                    .unwrap_or(0),
            }
        })
        .collect();
    SsbData {
        date_dim: date_dimension(),
        lineorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::TpchGen;

    #[test]
    fn date_dimension_covers_range() {
        let dim = date_dimension();
        assert_eq!(dim.first().unwrap().d_date, "1992-01-01");
        assert_eq!(dim.last().unwrap().d_date, "1998-12-31");
        // 1992..=1998 = 2557 days (two leap years: 1992, 1996).
        assert_eq!(dim.len(), 2557);
    }

    #[test]
    fn year_month_num_is_sortable() {
        let dim = date_dimension();
        assert!(dim.windows(2).all(|w| w[0].d_yearmonthnum <= w[1].d_yearmonthnum));
    }

    #[test]
    fn seasons() {
        assert_eq!(selling_season(12), "Christmas");
        assert_eq!(selling_season(6), "Summer");
        assert_eq!(selling_season(1), "Winter");
        assert_eq!(selling_season(4), "Spring");
        assert_eq!(selling_season(10), "Fall");
    }

    #[test]
    fn lineorder_matches_lineitem_cardinality() {
        let tpch = TpchGen::new(0.001, 42).generate();
        let ssb = from_tpch(&tpch);
        assert_eq!(ssb.lineorder.len(), tpch.lineitem.len());
    }

    #[test]
    fn lineorder_denormalizes_order_columns() {
        let tpch = TpchGen::new(0.001, 42).generate();
        let ssb = from_tpch(&tpch);
        let orders: std::collections::HashMap<_, _> =
            tpch.orders.iter().map(|o| (o.o_orderkey, o)).collect();
        for lo in &ssb.lineorder {
            let o = orders[&lo.lo_orderkey];
            assert_eq!(lo.lo_custkey, o.o_custkey);
            assert_eq!(lo.lo_orderdate, o.o_orderdate);
        }
    }

    #[test]
    fn revenue_is_discounted_price() {
        let tpch = TpchGen::new(0.001, 42).generate();
        let ssb = from_tpch(&tpch);
        for (lo, l) in ssb.lineorder.iter().zip(&tpch.lineitem) {
            let expect =
                (l.l_extendedprice as f64 * (1.0 - l.l_discount as f64 / 100.0)).round() as i64;
            assert_eq!(lo.lo_revenue, expect);
        }
    }

    #[test]
    fn supplycost_comes_from_partsupp() {
        let tpch = TpchGen::new(0.001, 42).generate();
        let ssb = from_tpch(&tpch);
        assert!(ssb.lineorder.iter().all(|lo| lo.lo_supplycost > 0));
    }
}
