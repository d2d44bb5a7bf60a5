//! Great-circle geometry shared by the world model and the §6.2 mobility
//! analysis ("we computed for each GUID the two geolocations that were
//! farthest apart").

/// Mean Earth radius, km.
const EARTH_RADIUS_KM: f64 = 6371.0;

/// Great-circle (haversine) distance between two (lat, lon) points in
/// degrees, in kilometres.
pub fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let (la1, lo1, la2, lo2) = (
        lat1.to_radians(),
        lon1.to_radians(),
        lat2.to_radians(),
        lon2.to_radians(),
    );
    let dlat = la2 - la1;
    let dlon = lo2 - lo1;
    let a = (dlat / 2.0).sin().powi(2) + la1.cos() * la2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * a.sqrt().atan2((1.0 - a).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_known_distances() {
        // Philadelphia → Barcelona is about 6,450 km.
        let d = haversine_km(39.95, -75.16, 41.39, 2.17);
        assert!((6100.0..6800.0).contains(&d), "got {d}");
        // Zero distance.
        assert!(haversine_km(10.0, 20.0, 10.0, 20.0) < 1e-9);
        // Antipodal points are half the circumference (~20,015 km).
        let anti = haversine_km(0.0, 0.0, 0.0, 180.0);
        assert!((19900.0..20100.0).contains(&anti), "got {anti}");
    }
}
