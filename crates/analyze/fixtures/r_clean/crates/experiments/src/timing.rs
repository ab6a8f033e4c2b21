//! The sanctioned host-timing seam (chokepoint for the R family).
pub fn host_now_s() -> f64 {
    let _t = Instant::now();
    0.0
}
