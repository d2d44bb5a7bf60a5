//! Traffic units: byte counts and link bandwidths.
//!
//! The paper reports sizes from kilobytes to multi-gigabyte installers
//! (Fig 3a) and speeds in Mbps (Fig 4). These newtypes keep the two scales
//! from being confused and provide the conversions the analytics need.

use crate::time::SimDuration;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A number of content bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ByteCount(pub u64);

impl ByteCount {
    /// Zero bytes.
    pub const ZERO: ByteCount = ByteCount(0);

    /// From raw bytes.
    pub const fn from_bytes(b: u64) -> Self {
        ByteCount(b)
    }
    /// From kibibytes.
    pub const fn from_kib(k: u64) -> Self {
        ByteCount(k * 1024)
    }
    /// From mebibytes.
    pub const fn from_mib(m: u64) -> Self {
        ByteCount(m * 1024 * 1024)
    }
    /// From gibibytes.
    pub const fn from_gib(g: u64) -> Self {
        ByteCount(g * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: ByteCount) -> ByteCount {
        ByteCount(self.0.saturating_sub(rhs.0))
    }

    /// The average transfer rate needed to move this many bytes in `d`.
    pub fn rate_over(self, d: SimDuration) -> Bandwidth {
        if d.as_micros() == 0 {
            return Bandwidth::ZERO;
        }
        Bandwidth::from_bytes_per_sec(self.0 as f64 / d.as_secs_f64())
    }
}

impl Add for ByteCount {
    type Output = ByteCount;
    fn add(self, rhs: ByteCount) -> ByteCount {
        ByteCount(self.0 + rhs.0)
    }
}

impl AddAssign for ByteCount {
    fn add_assign(&mut self, rhs: ByteCount) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteCount {
    type Output = ByteCount;
    fn sub(self, rhs: ByteCount) -> ByteCount {
        ByteCount(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for ByteCount {
    fn sum<I: Iterator<Item = ByteCount>>(iter: I) -> ByteCount {
        ByteCount(iter.map(|b| b.0).sum())
    }
}

impl fmt::Debug for ByteCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for ByteCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1e12 {
            write!(f, "{:.2}TB", b / 1e12)
        } else if b >= 1e9 {
            write!(f, "{:.2}GB", b / 1e9)
        } else if b >= 1e6 {
            write!(f, "{:.2}MB", b / 1e6)
        } else if b >= 1e3 {
            write!(f, "{:.2}kB", b / 1e3)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// A transfer rate. Stored as bytes/second (f64) for flow-model arithmetic;
/// displayed in Mbps to match the paper's figures.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(pub f64);

impl Bandwidth {
    /// Zero rate.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// From bytes per second.
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        Bandwidth(bps.max(0.0))
    }
    /// From megabits per second (the paper's unit).
    pub fn from_mbps(mbps: f64) -> Self {
        Bandwidth(mbps.max(0.0) * 1e6 / 8.0)
    }

    /// Bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }
    /// Megabits per second.
    pub fn as_mbps(self) -> f64 {
        self.0 * 8.0 / 1e6
    }

    /// Bytes moved at this rate during `d`.
    pub fn bytes_in(self, d: SimDuration) -> ByteCount {
        ByteCount((self.0 * d.as_secs_f64()) as u64)
    }

    /// Time needed to move `b` bytes at this rate; `None` if the rate is 0.
    pub fn time_for(self, b: ByteCount) -> Option<SimDuration> {
        if self.0 <= 0.0 {
            return None;
        }
        Some(SimDuration::from_secs_f64(b.bytes() as f64 / self.0))
    }

    /// Element-wise minimum.
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth((self.0 - rhs.0).max(0.0))
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        Bandwidth(iter.map(|b| b.0).sum())
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}Mbps", self.as_mbps())
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}Mbps", self.as_mbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors() {
        assert_eq!(ByteCount::from_kib(2).bytes(), 2048);
        assert_eq!(ByteCount::from_mib(1).bytes(), 1 << 20);
        assert_eq!(ByteCount::from_gib(1).bytes(), 1 << 30);
    }

    #[test]
    fn mbps_roundtrip() {
        let b = Bandwidth::from_mbps(10.0);
        assert!((b.as_mbps() - 10.0).abs() < 1e-9);
        assert!((b.bytes_per_sec() - 1_250_000.0).abs() < 1e-6);
    }

    #[test]
    fn bytes_in_duration() {
        let b = Bandwidth::from_bytes_per_sec(1000.0);
        assert_eq!(b.bytes_in(SimDuration::from_secs(5)).bytes(), 5000);
    }

    #[test]
    fn time_for_transfer() {
        let b = Bandwidth::from_bytes_per_sec(2000.0);
        let t = b.time_for(ByteCount::from_bytes(10_000)).unwrap();
        assert_eq!(t, SimDuration::from_secs(5));
        assert!(Bandwidth::ZERO.time_for(ByteCount::from_bytes(1)).is_none());
    }

    #[test]
    fn rate_over_duration() {
        let r = ByteCount::from_bytes(1_000_000).rate_over(SimDuration::from_secs(8));
        assert!((r.as_mbps() - 1.0).abs() < 1e-9);
        assert_eq!(
            ByteCount::from_bytes(5).rate_over(SimDuration::ZERO),
            Bandwidth::ZERO
        );
    }

    #[test]
    fn display_scales() {
        assert_eq!(ByteCount::from_bytes(999).to_string(), "999B");
        assert_eq!(ByteCount::from_bytes(2_000_000).to_string(), "2.00MB");
        assert_eq!(ByteCount::from_bytes(3_400_000_000).to_string(), "3.40GB");
    }

    #[test]
    fn subtraction_saturates() {
        let a = ByteCount::from_bytes(3);
        let b = ByteCount::from_bytes(10);
        assert_eq!((a - b).bytes(), 0);
        assert_eq!(a.saturating_sub(b).bytes(), 0);
        let x = Bandwidth::from_bytes_per_sec(1.0) - Bandwidth::from_bytes_per_sec(5.0);
        assert_eq!(x.bytes_per_sec(), 0.0);
    }
}
