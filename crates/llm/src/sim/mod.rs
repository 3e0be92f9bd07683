//! Deterministic simulated foundation models.
//!
//! See the crate docs for the substitution argument. Submodules:
//!
//! * [`parse`] — parse the rendered prompt text back into sections (the
//!   model sees exactly what a real model would see);
//! * [`reason`] — question understanding: task shape + key phrases;
//! * [`select`] — metric selection against the prompt's CONTEXT;
//! * [`codegen`] — PromQL generation from induced few-shot templates,
//!   with naive fallbacks and name fabrication when context is missing;
//! * [`noise`] — deterministic pseudo-random degradation (temperature-0
//!   analogue of model fallibility);
//! * [`profile`] — capability tiers and the [`FoundationModel`]
//!   implementation.
//!
//! [`FoundationModel`]: crate::model::FoundationModel

pub(crate) mod codegen;
pub(crate) mod noise;
pub(crate) mod parse;
pub(crate) mod profile;
pub(crate) mod reason;
pub(crate) mod select;
