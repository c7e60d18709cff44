//! Proleptic-Gregorian calendar arithmetic on day numbers.
//!
//! Dates are represented as `i32` days since the epoch 1970-01-01, the
//! representation shared by the data generators and the SQL engines.
//! The algorithms are the classic civil-calendar conversions (Howard
//! Hinnant's `days_from_civil` family), valid far beyond the 1992–1998
//! TPC-H date range.

/// A calendar date split into components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Date {
    pub year: i32,
    pub month: u32,
    pub day: u32,
}

impl Date {
    pub const fn new(year: i32, month: u32, day: u32) -> Self {
        Date { year, month, day }
    }
}

/// Convert a civil date to days since 1970-01-01; `None` when that count
/// leaves `i32`.
pub fn to_days(d: Date) -> Option<i32> {
    let y = if d.month <= 2 { d.year - 1 } else { d.year } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (d.month as i64 + 9) % 12; // [0, 11], March = 0
    let doy = (153 * mp + 2) / 5 + d.day as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    i32::try_from(era * 146097 + doe - 719468).ok()
}

/// Convert days since 1970-01-01 back to a civil date.
pub fn from_days(days: i32) -> Date {
    let z = days as i64 + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    Date {
        year: (if m <= 2 { y + 1 } else { y }) as i32,
        month: m,
        day: d,
    }
}

/// Parse `YYYY-MM-DD` into days since the epoch.
///
/// Returns `None` for malformed text or out-of-range components.
pub fn parse_days(s: &str) -> Option<i32> {
    let mut parts = s.split('-');
    let year: i32 = parts.next()?.parse().ok()?;
    let month: u32 = parts.next()?.parse().ok()?;
    let day: u32 = parts.next()?.parse().ok()?;
    if parts.next().is_some() || !(1..=12).contains(&month) {
        return None;
    }
    if day < 1 || day > days_in_month(year, month) {
        return None;
    }
    to_days(Date::new(year, month, day))
}

/// Format days since the epoch as `YYYY-MM-DD`.
pub fn format_days(days: i32) -> String {
    let d = from_days(days);
    format!("{:04}-{:02}-{:02}", d.year, d.month, d.day)
}

/// True for Gregorian leap years.
pub fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in the given month.
pub fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// The year component of a day number (for `EXTRACT(YEAR FROM ...)`).
pub fn year_of(days: i32) -> i32 {
    from_days(days).year
}

/// Add `n` calendar months, clamping the day to the target month's length
/// (1994-01-31 + 1 month = 1994-02-28), the SQL `INTERVAL` convention;
/// `None` when the result leaves the `i32` day count.
pub fn add_months(days: i32, n: i32) -> Option<i32> {
    let d = from_days(days);
    let total = d.year as i64 * 12 + (d.month as i64 - 1) + n as i64;
    let year = i32::try_from(total.div_euclid(12)).ok()?;
    let month = (total.rem_euclid(12) + 1) as u32;
    let day = d.day.min(days_in_month(year, month));
    to_days(Date::new(year, month, day))
}

/// Add `n` calendar years (Feb 29 clamps to Feb 28 off leap years);
/// `None` when the result leaves the `i32` day count.
pub fn add_years(days: i32, n: i32) -> Option<i32> {
    add_months(days, n.checked_mul(12)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(to_days(Date::new(1970, 1, 1)), Some(0));
        assert_eq!(from_days(0), Date::new(1970, 1, 1));
    }

    #[test]
    fn known_dates() {
        // TPC-H date range endpoints.
        assert_eq!(to_days(Date::new(1992, 1, 1)), Some(8035));
        assert_eq!(to_days(Date::new(1998, 12, 31)), Some(10591));
        assert_eq!(format_days(8035), "1992-01-01");
    }

    #[test]
    fn round_trip_every_day_of_tpch_range() {
        for days in 8035..=10591 {
            assert_eq!(to_days(from_days(days)), Some(days));
        }
    }

    #[test]
    fn parse_and_format() {
        assert_eq!(parse_days("1994-01-01"), to_days(Date::new(1994, 1, 1)));
        assert_eq!(format_days(parse_days("1996-02-29").unwrap()), "1996-02-29");
        assert_eq!(parse_days("1994-13-01"), None);
        assert_eq!(parse_days("1994-02-30"), None);
        assert_eq!(parse_days("1994-02"), None);
        assert_eq!(parse_days("not-a-date"), None);
    }

    #[test]
    fn leap_years() {
        assert!(is_leap(1996));
        assert!(is_leap(2000));
        assert!(!is_leap(1900));
        assert!(!is_leap(1995));
        assert_eq!(days_in_month(1996, 2), 29);
        assert_eq!(days_in_month(1995, 2), 28);
    }

    #[test]
    fn month_arithmetic_clamps() {
        let jan31 = parse_days("1994-01-31").unwrap();
        assert_eq!(format_days(add_months(jan31, 1).unwrap()), "1994-02-28");
        assert_eq!(format_days(add_months(jan31, -1).unwrap()), "1993-12-31");
        let jul1 = parse_days("1993-07-01").unwrap();
        assert_eq!(format_days(add_months(jul1, 3).unwrap()), "1993-10-01");
    }

    #[test]
    fn year_arithmetic() {
        let feb29 = parse_days("1996-02-29").unwrap();
        assert_eq!(format_days(add_years(feb29, 1).unwrap()), "1997-02-28");
        assert_eq!(year_of(feb29), 1996);
    }

    #[test]
    fn far_from_the_epoch_is_none_not_a_wrapped_day() {
        assert_eq!(to_days(from_days(i32::MAX)), Some(i32::MAX));
        assert_eq!(to_days(from_days(i32::MIN)), Some(i32::MIN));
        assert_eq!(add_months(i32::MAX, 1), None);
        assert_eq!(add_months(0, i32::MAX), None);
        assert_eq!(add_months(0, i32::MIN), None);
        assert_eq!(add_years(0, i32::MAX), None);
        assert_eq!(parse_days("6000000-01-01"), None);
    }

    #[test]
    fn negative_days_before_epoch() {
        assert_eq!(format_days(-1), "1969-12-31");
        assert_eq!(parse_days("1969-12-31"), Some(-1));
    }
}
