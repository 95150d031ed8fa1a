//! PPA's hardware additions: MaskReg, the committed store queue, the JIT
//! checkpointing controller, and the recovery protocol.

pub mod checkpoint;
pub mod csq;
pub mod mask;
pub mod recovery;

pub use checkpoint::{
    deserialize_images, flush, serialize_images, CheckpointController, CheckpointImage, CkptState,
    Flush, IndexWalker,
};
pub use csq::{Csq, CsqEntry};
pub use mask::MaskReg;
pub use recovery::{replay_stores, RecoveryReport};
