//! R-family firing fixture: the host clock is laundered through a
//! helper in another crate, which only the call-graph rules can see;
//! the metrics call is direct (R005), and the crate's manifest
//! declares `psc-metrics` (M001).
use psc_machine::util::stamp;

pub fn run_jacobi() {
    stamp();
    psc_metrics::counter_inc();
}
