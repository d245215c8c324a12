//! Crash states from directory images. Included by path from
//! `tests/crash_states.rs`.
//!
//! The LSM engine changes its directory in one fixed order per flush job:
//! it writes new table files, writes `MANIFEST.tmp`, renames it over
//! `MANIFEST` (the commit point), then deletes the tables the new manifest
//! made obsolete. A durable backend syncs its block file before each
//! checkpoint's job starts and appends blocks at its end. So every
//! directory a crash during one job can leave is a function of two images
//! taken at the engine's install points: the directory before the job and
//! the directory after it. [`states`] builds those directories, in three
//! families:
//!
//! 1. **Before the publish.** The old `MANIFEST` and every old file, any
//!    subset of the job's new files each cut at any length, perhaps a torn
//!    `MANIFEST.tmp`, and a block file at any length at or above the old
//!    checkpoint's.
//! 2. **After the publish, before the deletes.** The new `MANIFEST`, every
//!    new file whole, and any subset of the tables it made obsolete.
//! 3. **A block file cut anywhere** under the new `MANIFEST`.
//!
//! "Any" is sampled: every prefix of the write order with the next file
//! cut at three lengths, seeded random subsets, and block cuts at every
//! frame boundary, one byte either side of it and mid-frame.

use std::collections::BTreeMap;
use std::path::Path;

use ledgerview::crypto::rng::seeded;
use ledgerview::statedb::manifest::MANIFEST_FILE;
use rand::RngCore;

/// Every file under a directory, keyed by its `/`-separated path relative
/// to the directory, with its bytes.
pub type Image = BTreeMap<String, Vec<u8>>;

/// The image of `dir` (empty when it does not exist).
pub fn image(dir: &Path) -> Image {
    fn walk(dir: &Path, prefix: &str, out: &mut Image) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries {
            let entry = entry.expect("directory entry");
            let name = format!("{prefix}{}", entry.file_name().to_string_lossy());
            if entry.path().is_dir() {
                walk(&entry.path(), &format!("{name}/"), out);
            } else {
                out.insert(name, std::fs::read(entry.path()).expect("read image file"));
            }
        }
    }
    let mut out = Image::new();
    walk(dir, "", &mut out);
    out
}

/// Make `dir` hold exactly `image`.
pub fn restore(image: &Image, dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create image dir");
    for (name, bytes) in image {
        let path = dir.join(name);
        std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("create dir");
        std::fs::write(path, bytes).expect("write image file");
    }
}

/// Which crash window a state comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// The job died before its manifest rename: the old manifest rules.
    BeforePublish,
    /// The rename happened; some obsolete tables were not yet deleted.
    AfterPublish,
    /// The new manifest rules; the block file lost an arbitrary suffix.
    BlockCut,
}

/// One directory a crash can leave.
pub struct CrashState {
    pub family: Family,
    /// What was cut or left out, for failure messages.
    pub label: String,
    pub image: Image,
    /// The block file's length in `image`, when the layout has one.
    pub block_len: Option<u64>,
}

/// The block file of a chain's storage directory.
pub struct Blocks<'a> {
    /// Its path inside the images.
    pub file: &'a str,
    /// Its length at the old manifest's checkpoint: everything below was
    /// synced before that checkpoint's job started.
    pub old_checkpoint_len: u64,
    /// Its length after each block, ascending: where frames end.
    pub ends: &'a [u64],
}

/// Where the engine's files sit inside the images.
pub struct Layout<'a> {
    /// Prefix of the LSM's files: `""` when the image is the LSM directory
    /// itself, `"lsm/"` for a chain's storage directory.
    pub lsm: &'a str,
    /// The block file, for a chain's storage directory.
    pub blocks: Option<Blocks<'a>>,
}

/// Lengths at which the block file is cut: 0, every frame end, one byte
/// either side of it, and the middle of the frame that follows.
fn block_cuts(ends: &[u64], len: u64) -> Vec<u64> {
    let mut cuts = vec![0];
    let mut start = 0;
    for &end in ends {
        cuts.extend([
            start + (end - start) / 2,
            end.saturating_sub(1),
            end,
            end + 1,
        ]);
        start = end;
    }
    cuts.retain(|&cut| cut <= len);
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Every state a crash during the job between `before` and `after` can
/// leave (see the module docs).
pub fn states<'a>(before: &Image, after: &'a Image, layout: &Layout<'_>) -> Vec<CrashState> {
    let manifest = format!("{}{MANIFEST_FILE}", layout.lsm);
    let tmp = format!("{manifest}.tmp");
    let in_lsm = |name: &String| name.starts_with(layout.lsm);
    let is_lsm_table = |name: &String| in_lsm(name) && *name != manifest;
    // Everything outside the LSM (the block file and its index) comes from
    // `after`: the block file is then cut to the family's lengths.
    let outside: Image = after
        .iter()
        .filter(|(name, _)| !in_lsm(name))
        .map(|(name, bytes)| (name.clone(), bytes.clone()))
        .collect();
    let new: Vec<&String> = after
        .keys()
        .filter(|name| is_lsm_table(name) && !before.contains_key(*name))
        .collect();
    let obsolete: Vec<&String> = before
        .keys()
        .filter(|name| is_lsm_table(name) && !after.contains_key(*name))
        .collect();
    let mut rng = seeded(after.get(&manifest).map_or(0, |m| m.len() as u64) ^ (new.len() as u64));

    // Family 1: the old LSM files, then some of the new ones.
    let mut old = outside.clone();
    old.extend(
        before
            .iter()
            .filter(|(name, _)| in_lsm(name))
            .map(|(name, bytes)| (name.clone(), bytes.clone())),
    );
    let with = |files: &[(&String, u64)], label: String| -> (String, Image) {
        let mut image = old.clone();
        for &(name, len) in files {
            let bytes = &after[name];
            image.insert(
                name.clone(),
                bytes[..(len as usize).min(bytes.len())].to_vec(),
            );
        }
        (label, image)
    };
    let whole = |name: &&'a String| (*name, after[*name].len() as u64);
    let mut lsm_variants = vec![with(&[], "no new file".into())];
    for (i, name) in new.iter().enumerate() {
        let len = after[*name].len() as u64;
        for keep in [0, len / 2, len.saturating_sub(1)] {
            let mut files: Vec<_> = new[..i].iter().map(whole).collect();
            files.push((name, keep));
            lsm_variants.push(with(
                &files,
                format!("{} new whole, {name} cut to {keep}", i),
            ));
        }
    }
    let all: Vec<_> = new.iter().map(whole).collect();
    lsm_variants.push(with(&all, "every new file".into()));
    if let Some(next) = after.get(&manifest) {
        for keep in [0, next.len() / 2, next.len()] {
            let (_, mut image) = with(&all, String::new());
            image.insert(tmp.clone(), next[..keep].to_vec());
            lsm_variants.push((format!("every new file, {tmp} of {keep} bytes"), image));
        }
    }
    for round in 0..4 {
        let mut files = Vec::new();
        for name in &new {
            let draw = rng.next_u64();
            if draw.is_multiple_of(2) {
                files.push((*name, (draw >> 1) % (after[*name].len() as u64 + 1)));
            }
        }
        lsm_variants.push(with(&files, format!("random subset {round}: {files:?}")));
    }

    // Block file lengths: every cut for family 3, and for family 1 those
    // that keep what the old checkpoint synced.
    let block_file = layout.blocks.as_ref().map(|b| b.file);
    let full = block_file.map(|file| after[file].len() as u64);
    let (synced, cuts) = match &layout.blocks {
        None => (vec![None], Vec::new()),
        Some(b) => {
            let cuts = block_cuts(b.ends, after[b.file].len() as u64);
            let synced = cuts.iter().filter(|&&c| c >= b.old_checkpoint_len);
            (synced.map(|&c| Some(c)).collect(), cuts)
        }
    };
    let cut = |mut image: Image, len: Option<u64>| {
        if let (Some(file), Some(len)) = (block_file, len) {
            image
                .get_mut(file)
                .expect("block file")
                .truncate(len as usize);
        }
        image
    };

    let mut out = Vec::new();
    // Pair LSM variants with block lengths round-robin, so each list is
    // covered without taking their product.
    for i in 0..lsm_variants.len().max(synced.len()) {
        let (label, image) = &lsm_variants[i % lsm_variants.len()];
        let len = synced[i % synced.len()];
        out.push(CrashState {
            family: Family::BeforePublish,
            label: format!("{label}; block file of {len:?} bytes"),
            image: cut(image.clone(), len),
            block_len: len,
        });
    }
    push_after_publish(&mut out, before, after, &obsolete, &mut rng, full);
    for len in cuts {
        out.push(CrashState {
            family: Family::BlockCut,
            label: format!("block file cut to {len}"),
            image: cut(after.clone(), Some(len)),
            block_len: Some(len),
        });
    }
    out
}

/// Family 2: `after` plus some of the tables its manifest made obsolete —
/// none, each alone, all, and two seeded random subsets.
fn push_after_publish(
    out: &mut Vec<CrashState>,
    before: &Image,
    after: &Image,
    obsolete: &[&String],
    rng: &mut impl RngCore,
    block_len: Option<u64>,
) {
    let mut subsets: Vec<Vec<&String>> = vec![Vec::new()];
    if !obsolete.is_empty() {
        subsets.extend(obsolete.iter().map(|name| vec![*name]));
        subsets.push(obsolete.to_vec());
        for _ in 0..2 {
            subsets.push(
                obsolete
                    .iter()
                    .copied()
                    .filter(|_| rng.next_u64().is_multiple_of(2))
                    .collect(),
            );
        }
    }
    for subset in subsets {
        let mut image = after.clone();
        for name in &subset {
            image.insert((*name).clone(), before[*name].clone());
        }
        out.push(CrashState {
            family: Family::AfterPublish,
            label: format!("obsolete tables left: {subset:?}"),
            image,
            block_len,
        });
    }
}
