//! # dio-copilot
//!
//! **Data Intelligence for Operators Copilot** — the paper's primary
//! contribution: a natural-language interface for retrieval and
//! analytics over operator data.
//!
//! The pipeline reproduces Figure 2 of the paper end-to-end:
//!
//! 1. **Domain-specific database** ([`dio_catalog::DomainDb`]): 3000+
//!    metric descriptions plus bespoke expert functions;
//! 2. **Context extraction** (`extractor`): embed the question
//!    (sentence-embedder substitute for all-MiniLM-L6-v2), cosine-search
//!    the vector store (FAISS substitute), keep the top 10 samples
//!    (the paper keeps 29);
//! 3. **Relevant-metric identification and few-shot code generation**,
//!    in one prompt: the foundation model sees the retrieved context
//!    and 20 expert exemplars and emits PromQL over the metrics that
//!    answer the question;
//! 4. **Sandboxed execution** ([`dio_sandbox`]): vet and run the
//!    generated query against the metrics store for a *numerically
//!    accurate* answer;
//! 5. **Dashboard generation** ([`dio_dashboard`]);
//! 6. **Expert feedback** ([`dio_feedback`]): raise-hand files an
//!    issue; expert resolutions grow the domain DB and the few-shot
//!    pool, and the copilot re-indexes.
//!
//! ```no_run
//! use dio_copilot::{CopilotBuilder, CopilotConfig};
//! # let db = dio_catalog::DomainDb::standard();
//! # let store = dio_tsdb::MetricStore::new();
//! let copilot = CopilotBuilder::new(db, store).build();
//! let response = copilot.ask("How many PDU sessions are currently active?", 0);
//! println!("{}", response.render());
//! ```

mod answer;
mod config;
mod error;
mod extractor;
pub mod obs;
pub mod pipeline;
mod recovery;
mod session;
mod trace;

pub use answer::CopilotResponse;
pub use config::CopilotConfig;
pub use error::CopilotError;
pub use extractor::RetrievalMode;
pub use pipeline::{AskRequest, CopilotBuilder, DioCopilot, Knowledge};
pub use recovery::{DegradationLevel, RecoveryPolicy};
pub use session::ChatSession;
pub use trace::ShardTiming;
