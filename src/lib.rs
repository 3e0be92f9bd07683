//! # dio — Data Intelligence for Operators Copilot
//!
//! A from-scratch Rust reproduction of *Adapting Foundation Models for
//! Operator Data Analytics* (Kotaru, HotNets '23): a natural-language
//! interface for retrieval and analytics over 5G operator metrics.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`copilot`] | `dio-copilot` | the paper's contribution: the end-to-end pipeline |
//! | [`catalog`] | `dio-catalog` | domain-specific database (3000+ 5G-core metrics, expert functions) |
//! | [`embed`] | `dio-embed` | deterministic sentence embedder (all-MiniLM-L6-v2 substitute) |
//! | [`vecstore`] | `dio-vecstore` | flat + IVF cosine indexes (FAISS substitute) |
//! | [`tsdb`] | `dio-tsdb` | labelled time-series store + synthetic traffic |
//! | [`promql`] | `dio-promql` | PromQL lexer/parser/evaluator |
//! | [`llm`] | `dio-llm` | prompts, pricing, simulated foundation models |
//! | [`sandbox`] | `dio-sandbox` | vetted, resource-limited query execution |
//! | [`dashboard`] | `dio-dashboard` | dashboard model, generation, ASCII rendering |
//! | [`feedback`] | `dio-feedback` | in-memory issue tracker, expert contributions |
//! | [`faults`] | `dio-faults` | seeded data-plane chaos + checksummed record framing |
//! | [`obs`] | `dio-obs` | metrics registry, tracer, Prometheus text exposition |
//! | [`baselines`] | `dio-baselines` | DIN-SQL-style and bare-model baselines |
//! | [`benchmark`] | `dio-benchmark` | 200-question benchmark + EX evaluation |
//! | [`serve`] | `dio-serve` | concurrent multi-tenant query service with admission control |
//! | [`gateway`] | `dio-gateway` | model-plane gateway: singleflight coalescing, batched inference, semantic answer cache |
//! | [`cluster`] | `dio-cluster` | sharded serving: hash-ring partitioning, WAL-shipped replicas, failover |
//!
//! ## Quickstart
//!
//! ```no_run
//! use dio::benchmark::{fewshot_exemplars, OperatorWorld, WorldConfig};
//! use dio::copilot::CopilotBuilder;
//!
//! let world = OperatorWorld::build(WorldConfig::default());
//! let mut copilot = CopilotBuilder::new(world.domain_db(), world.store.clone())
//!     .exemplars(fewshot_exemplars(&world.catalog))
//!     .build();
//! let answer = copilot.ask("How many PDU sessions are currently active?", world.eval_ts);
//! println!("{}", answer.render());
//! ```

pub use dio_baselines as baselines;
pub use dio_benchmark as benchmark;
pub use dio_catalog as catalog;
pub use dio_cluster as cluster;
pub use dio_copilot as copilot;
pub use dio_dashboard as dashboard;
pub use dio_embed as embed;
pub use dio_faults as faults;
pub use dio_feedback as feedback;
pub use dio_gateway as gateway;
pub use dio_llm as llm;
pub use dio_obs as obs;
pub use dio_promql as promql;
pub use dio_sandbox as sandbox;
pub use dio_serve as serve;
pub use dio_tsdb as tsdb;
pub use dio_vecstore as vecstore;
