//! The laundering helper: reads the host clock two frames below the
//! kernel root, where only the call graph (R001) sees it — fixtures are
//! never compiled, so clippy's clock ban does not reach them.
pub fn stamp() {
    helper_now();
}

fn helper_now() {
    let _t = Instant::now();
}
