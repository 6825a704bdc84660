//! The paper's four venues at their Table 2 default facility counts.

use ifls_indoor::Venue;

/// One venue and the default `|Fe|` / `|Fn|` the paper queries it with.
#[derive(Clone, Copy, Debug)]
pub struct VenueSpec {
    /// Short name used in the paper and in this benchmark's output.
    pub name: &'static str,
    /// Builds the venue.
    pub build: fn() -> Venue,
    /// Existing facilities `|Fe|`.
    pub fe: usize,
    /// Candidate locations `|Fn|`.
    pub fn_: usize,
}

/// Melbourne Central: Fe 75, Fn 150.
pub const MC: VenueSpec = VenueSpec {
    name: "MC",
    build: ifls_venues::melbourne_central,
    fe: 75,
    fn_: 150,
};

/// Chadstone: Fe 100, Fn 300.
pub const CH: VenueSpec = VenueSpec {
    name: "CH",
    build: ifls_venues::chadstone,
    fe: 100,
    fn_: 300,
};

/// Copenhagen Airport: Fe 20, Fn 35.
pub const CPH: VenueSpec = VenueSpec {
    name: "CPH",
    build: ifls_venues::copenhagen_airport,
    fe: 20,
    fn_: 35,
};

/// Menzies Building: Fe 300, Fn 500.
pub const MZB: VenueSpec = VenueSpec {
    name: "MZB",
    build: ifls_venues::menzies_building,
    fe: 300,
    fn_: 500,
};
