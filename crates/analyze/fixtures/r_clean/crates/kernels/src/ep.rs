//! R-family non-firing fixture: the kernel reaches a host clock, but
//! only through a chokepoint — reached, never expanded through.
use psc_faults::rng::host_now_s;

pub fn run_ep() {
    let _t = host_now_s();
    pure_math();
}

fn pure_math() {}
