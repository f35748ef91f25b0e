//! Fixture: an `hqs-serve` crate root whose `io` module is gone. The
//! layering table still lists `hqs-serve::io` as internal, so that
//! entry is stale. A declaration in a comment does not count:
//! mod io;

pub mod proto;
mod server;
