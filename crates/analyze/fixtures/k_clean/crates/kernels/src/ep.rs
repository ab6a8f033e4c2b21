//! K001 non-firing fixture: the kernel computes (the runtime reads the
//! gear for it) and reads only its rank; the policy crate's own gear
//! read is not reachable from any kernel.
pub fn run_ep(comm: &mut Comm) {
    let _r = comm.rank();
    comm.compute();
}
