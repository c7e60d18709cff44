//! Synthetic airtraffic ("ontime") dataset.
//!
//! The paper's demo includes an airtraffic sample project (the well-known
//! US DOT on-time performance data often used for DBMS demos). The real
//! data is not redistributable here, so we synthesize a flights table with
//! the same schema skeleton and the structure that makes its queries
//! interesting: carrier-specific delay profiles, seasonal effects, busier
//! hub airports and a small cancellation rate.

use crate::calendar::{from_days, to_days, Date};
use crate::prng::Pcg32;
use crate::tpch::Day;

/// One flight record.
#[derive(Debug, Clone, PartialEq)]
pub struct Flight {
    pub flightdate: Day,
    pub carrier: String,
    pub flightnum: i64,
    pub origin: String,
    pub dest: String,
    pub depdelay: i64,
    pub arrdelay: i64,
    pub distance: i64,
    pub cancelled: bool,
}

/// Carriers with (code, mean delay minutes) — the spread is what makes
/// per-carrier aggregation queries discriminative.
pub const CARRIERS: &[(&str, f64)] = &[
    ("AA", 8.0),
    ("DL", 6.0),
    ("UA", 10.0),
    ("WN", 4.0),
    ("B6", 14.0),
    ("AS", 3.0),
    ("NK", 18.0),
    ("F9", 16.0),
];

/// Airports with (code, hub weight, coordinates-ish distance basis).
pub const AIRPORTS: &[(&str, u32)] = &[
    ("ATL", 10),
    ("ORD", 9),
    ("DFW", 8),
    ("DEN", 7),
    ("LAX", 7),
    ("JFK", 6),
    ("SFO", 6),
    ("SEA", 5),
    ("MIA", 4),
    ("BOS", 4),
    ("PHX", 3),
    ("IAH", 3),
    ("MSP", 2),
    ("DTW", 2),
    ("SLC", 1),
    ("PDX", 1),
];

/// Generator for a year's worth of synthetic flights.
#[derive(Debug, Clone)]
pub struct AirTrafficGen {
    flights_per_day: usize,
    seed: u64,
    year: i32,
}

impl AirTrafficGen {
    pub fn new(flights_per_day: usize, year: i32, seed: u64) -> Self {
        assert!(flights_per_day > 0, "flights_per_day must be positive");
        AirTrafficGen {
            flights_per_day,
            seed,
            year,
        }
    }

    /// Weighted airport pick.
    fn pick_airport(rng: &mut Pcg32) -> &'static str {
        let total: u32 = AIRPORTS.iter().map(|(_, w)| w).sum();
        let mut roll = rng.range_i64(1, total as i64);
        for (code, w) in AIRPORTS {
            roll -= *w as i64;
            if roll <= 0 {
                return code;
            }
        }
        AIRPORTS[0].0
    }

    pub fn generate(&self) -> Vec<Flight> {
        let mut rng = Pcg32::new(self.seed, 11);
        let on = |month, day| to_days(Date::new(self.year, month, day)).expect("year in range");
        let (start, end) = (on(1, 1), on(12, 31));
        let mut out = Vec::with_capacity(self.flights_per_day * (end - start + 1) as usize);
        for day in start..=end {
            let month = from_days(day).month;
            // Winter months and the holiday season run later.
            let season_penalty = match month {
                12 | 1 | 2 => 8.0,
                6 | 7 => 4.0,
                _ => 0.0,
            };
            for _ in 0..self.flights_per_day {
                let (carrier, mean_delay) = *rng.pick(CARRIERS);
                let origin = Self::pick_airport(&mut rng);
                let dest = loop {
                    let d = Self::pick_airport(&mut rng);
                    if d != origin {
                        break d;
                    }
                };
                let cancelled = rng.chance(0.015);
                // Delay: a noisy exponential-ish draw around the carrier
                // mean plus the season penalty; about a third of flights
                // leave early (negative delay).
                let base = mean_delay + season_penalty;
                let dep = if rng.chance(0.33) {
                    -rng.range_i64(0, 10)
                } else {
                    (base * (rng.next_f64() + rng.next_f64())) as i64 + rng.range_i64(0, 5)
                };
                let arr = dep + rng.range_i64(-15, 25);
                out.push(Flight {
                    flightdate: day,
                    carrier: carrier.to_string(),
                    flightnum: rng.range_i64(1, 9999),
                    origin: origin.to_string(),
                    dest: dest.to_string(),
                    depdelay: if cancelled { 0 } else { dep },
                    arrdelay: if cancelled { 0 } else { arr },
                    distance: rng.range_i64(200, 2800),
                    cancelled,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_the_whole_year() {
        let flights = AirTrafficGen::new(3, 2015, 9).generate();
        assert_eq!(flights.len(), 3 * 365);
        let first = flights.first().unwrap().flightdate;
        let last = flights.last().unwrap().flightdate;
        assert_eq!(crate::calendar::format_days(first), "2015-01-01");
        assert_eq!(crate::calendar::format_days(last), "2015-12-31");
    }

    #[test]
    fn leap_year_has_366_days() {
        let flights = AirTrafficGen::new(1, 2016, 9).generate();
        assert_eq!(flights.len(), 366);
    }

    #[test]
    fn origin_never_equals_dest() {
        let flights = AirTrafficGen::new(5, 2015, 4).generate();
        assert!(flights.iter().all(|f| f.origin != f.dest));
    }

    #[test]
    fn deterministic() {
        let a = AirTrafficGen::new(5, 2015, 4).generate();
        let b = AirTrafficGen::new(5, 2015, 4).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn carrier_delay_profiles_separate() {
        // The structurally-bad carrier (NK) must have a worse mean delay
        // than the structurally-good one (AS); this is the signal the
        // airtraffic example queries look for.
        let flights = AirTrafficGen::new(200, 2015, 4).generate();
        let mean = |code: &str| {
            let (sum, n) = flights
                .iter()
                .filter(|f| f.carrier == code && !f.cancelled)
                .fold((0i64, 0i64), |(s, n), f| (s + f.depdelay, n + 1));
            sum as f64 / n as f64
        };
        assert!(mean("NK") > mean("AS") + 5.0);
    }

    #[test]
    fn cancellation_rate_is_small_but_nonzero() {
        let flights = AirTrafficGen::new(100, 2015, 4).generate();
        let cancelled = flights.iter().filter(|f| f.cancelled).count();
        let rate = cancelled as f64 / flights.len() as f64;
        assert!(rate > 0.002 && rate < 0.05, "rate {rate}");
    }

    #[test]
    fn hub_airports_busier() {
        let flights = AirTrafficGen::new(100, 2015, 4).generate();
        let count = |code: &str| flights.iter().filter(|f| f.origin == code).count();
        assert!(count("ATL") > count("PDX"));
    }
}
