//! 2-D positions.

use nomc_units::Meters;
use std::fmt;
use std::ops::{Add, Sub};

/// A point in the deployment plane, coordinates in metres.
///
/// # Examples
///
/// ```
/// use nomc_topology::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance_to(b).value(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// X coordinate (m).
    pub x: f64,
    /// Y coordinate (m).
    pub y: f64,
}

nomc_json::json_struct!(Point { x: f64, y: f64 });

impl Point {
    /// The origin.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point.
    ///
    /// # Panics
    ///
    /// Panics on non-finite coordinates.
    pub fn new(x: f64, y: f64) -> Self {
        assert!(x.is_finite() && y.is_finite(), "non-finite coordinate");
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance_to(self, other: Point) -> Meters {
        Meters::new(((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt())
    }

    /// This point translated by `(dx, dy)` metres.
    pub fn offset(self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_345() {
        assert_eq!(
            Point::new(1.0, 1.0).distance_to(Point::new(4.0, 5.0)),
            Meters::new(5.0)
        );
    }

    #[test]
    fn distance_symmetric_and_zero_to_self() {
        let (a, b) = (Point::new(2.0, -7.0), Point::new(-1.5, 0.25));
        assert_eq!(a.distance_to(b), b.distance_to(a));
        assert_eq!(a.distance_to(a), Meters::new(0.0));
    }

    #[test]
    fn offset_and_midpoint() {
        let p = Point::ORIGIN.offset(2.0, -2.0);
        assert_eq!(p, Point::new(2.0, -2.0));
        // Half the offset back lands on the midpoint.
        assert_eq!(p.offset(-1.0, 1.0), Point::new(1.0, -1.0));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        let _ = Point::new(f64::NAN, 0.0);
    }
}
