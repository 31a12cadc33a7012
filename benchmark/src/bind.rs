//! Source-IP shim: a TCP connection that leaves from a chosen loopback
//! alias. std cannot bind before connect, and on loopback the destination
//! address does not become the source, so `trust_mix` needs the raw
//! socket/bind/connect sequence.
#![allow(unsafe_code)]

use std::io;
use std::net::{Ipv4Addr, SocketAddrV4, TcpStream};
use std::os::fd::FromRawFd;

const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;
const SOCK_CLOEXEC: i32 = 0o2_000_000;

/// `struct sockaddr_in` (Linux): family, big-endian port and address.
#[repr(C)]
struct SockAddrIn {
    family: u16,
    port_be: u16,
    addr_be: u32,
    zero: [u8; 8],
}

impl SockAddrIn {
    fn new(ip: Ipv4Addr, port: u16) -> Self {
        SockAddrIn {
            family: AF_INET as u16,
            port_be: port.to_be(),
            addr_be: u32::from(ip).to_be(),
            zero: [0; 8],
        }
    }
}

extern "C" {
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn bind(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
    fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
}

/// Connects to `dst` from source address `src` (ephemeral port).
pub fn connect_from(src: Ipv4Addr, dst: SocketAddrV4) -> io::Result<TcpStream> {
    // SAFETY: no pointers; a non-negative return is a descriptor we own.
    let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is open and owned solely here; the stream closes it on
    // drop, including on the error returns below.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let len = std::mem::size_of::<SockAddrIn>() as u32;
    let from = SockAddrIn::new(src, 0);
    let to = SockAddrIn::new(*dst.ip(), dst.port());
    // SAFETY: both addresses are live, fully initialised sockaddr_in
    // values of `len` bytes, and `fd` stays open across both calls.
    if unsafe { bind(fd, &from, len) != 0 || connect(fd, &to, len) != 0 } {
        return Err(io::Error::last_os_error());
    }
    Ok(stream)
}
