//! # dio-catalog
//!
//! The domain-specific database substrate (paper §3.1).
//!
//! The paper builds DIO copilot on "more than 3000 metrics and statistics"
//! produced by a major virtual-network-function provider for the 5G core,
//! spanning AMF, SMF, NRF, N3IWF, NSSF, and UPF, with per-counter vendor
//! documentation ("The number of authentication requests sent by AMF. The
//! AUTHENTICATION REQUEST message is defined in section 8.2.1 of 3GPP TS
//! 24.501. 64-bit counter"). That documentation is proprietary, so this
//! crate *generates* a structurally faithful catalog:
//!
//! * [`generate_catalog`] expands per-NF procedure grammars
//!   (registration, authentication, PDU-session establishment, NF
//!   discovery, …) into 3000+ [`MetricDef`]s, each with a specialised
//!   glued name, a multi-sentence description, a 3GPP spec reference,
//!   a counter type, and traffic-shape hints for the synthesiser;
//! * procedures stay grouped ([`ProcedureGroup`]) so the benchmark can
//!   ask about derived entities ("initial registration procedure success
//!   rate") that need several counters combined;
//! * `functions` holds bespoke expert function definitions (success
//!   rate, per-second rate, traffic gbps…) — the "function definitions"
//!   the paper adds to the domain DB;
//! * `docs` renders and segments the synthetic vendor documentation
//!   the way §4 describes ("text … is extracted and segmented into text
//!   samples");
//! * [`DomainDb`] is the runtime store the copilot retrieves from, and
//!   the thing the expert-feedback loop appends to.

mod docs;
mod functions;
mod generator;
mod nf;
mod procedures;
mod store;
mod types;

pub use docs::{render_manual, DocSample};
pub use functions::FunctionDef;
pub use generator::{generate_catalog, Catalog, CatalogConfig};
pub use nf::NetworkFunction;
pub use procedures::FAILURE_CAUSES;
pub use store::{DomainDb, ExpertNote, Provenance};
pub use types::{CounterType, MetricDef, MetricRole, ProcedureGroup, TrafficHint, Unit};
