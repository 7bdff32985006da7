//! Shutdown hygiene of the service front-end: idempotent stop and no
//! leaked descriptors.
//!
//! The test counts the whole process's open descriptors, so it lives in
//! its own test binary: no sibling test can open sockets in parallel and
//! move the count.

use std::time::Duration;
use thetacrypt::core::ThetaNetworkBuilder;
use thetacrypt::orchestration::Request;
use thetacrypt::service::RpcClient;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map(|d| d.count()).unwrap_or(0)
}

/// `ServiceHandle::stop` is idempotent, returns promptly with no
/// connected client (the waker pipe, not a dummy connect, unblocks the
/// loop), and closes every descriptor the front-end owned.
#[test]
fn stop_is_idempotent_and_leaks_no_descriptors() {
    let net = ThetaNetworkBuilder::new(0, 1).with_bls04().seed(11).build().unwrap();
    let node = net.node(1).clone();
    let keys = net.public_keys().clone();

    let baseline = open_fds();
    let mut handle = thetacrypt::service::serve(
        "127.0.0.1:0".parse().unwrap(),
        node,
        keys,
        Duration::from_secs(5),
    )
    .unwrap();
    // Exercise the loop: a few concurrent connections, one with
    // requests in flight, one idle, one half-closed.
    let mut active = RpcClient::connect(handle.addr(), Duration::from_secs(5)).unwrap();
    active.run_protocol(Request::Bls04Sign(b"pre-stop".to_vec())).unwrap();
    let idle = std::net::TcpStream::connect(handle.addr()).unwrap();
    let dropped = std::net::TcpStream::connect(handle.addr()).unwrap();
    drop(dropped);
    assert!(open_fds() > baseline, "the service must hold descriptors while up");

    let start = std::time::Instant::now();
    handle.stop();
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "stop must not wait out a poll timeout ({:?})",
        start.elapsed()
    );
    // Second stop: a no-op, not a panic or a hang.
    handle.stop();
    drop(handle);
    drop(active);
    drop(idle);

    assert!(
        open_fds() <= baseline,
        "descriptors leaked: {} before serve, {} after stop",
        baseline,
        open_fds()
    );
}
