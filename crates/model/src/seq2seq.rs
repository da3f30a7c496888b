//! A from-scratch GRU encoder–decoder with attention.
//!
//! This is the "generic sequence-to-sequence model" class the paper
//! builds on (§1, citing [51]): an embedding + GRU encoder, a GRU decoder
//! with Luong-style dot-product attention, a softmax output layer over
//! SQL tokens, trained with teacher forcing and Adam, decoded greedily.
//! Everything — forward, backward, optimizer — is implemented manually in
//! this crate; there is no external ML dependency.

use crate::gru::{GruCache, GruCell, GruScratch, Recurrent, RecurrentCols};
use crate::math::{dot, matvec, matvec_cols, outer_acc, softmax_inplace, transpose, Param};
use crate::vocab::{Vocab, EOS, SOS};
use dbpal_core::{TrainOptions, TrainingCorpus, TranslationModel};
use dbpal_sql::{parse_query, Query};
use dbpal_util::{Rng, SliceRandom};

/// Hyperparameters of the seq2seq model.
#[derive(Debug, Clone)]
pub struct Seq2SeqConfig {
    /// Token embedding width.
    pub embed_dim: usize,
    /// GRU hidden width.
    pub hidden_dim: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Maximum decoded SQL length in tokens.
    pub max_decode_len: usize,
    /// Per-parameter gradient clip (L2).
    pub grad_clip: f32,
}

impl Default for Seq2SeqConfig {
    fn default() -> Self {
        Seq2SeqConfig {
            embed_dim: 32,
            hidden_dim: 48,
            learning_rate: 2e-3,
            max_decode_len: 64,
            grad_clip: 5.0,
        }
    }
}

/// Tokenize SQL text into the model's target tokens using the SQL lexer.
pub fn sql_tokens(text: &str) -> Vec<String> {
    match dbpal_sql::tokenize(text) {
        Ok(tokens) => tokens.iter().map(|t| t.describe()).collect(),
        Err(_) => text.split_whitespace().map(str::to_string).collect(),
    }
}

/// The seq2seq translation model.
pub struct Seq2SeqModel {
    cfg: Seq2SeqConfig,
    src_vocab: Vocab,
    tgt_vocab: Vocab,
    src_embed: Param,
    tgt_embed: Param,
    encoder: GruCell,
    decoder: GruCell,
    w_out: Param,
    b_out: Param,
    /// The encoder's input projection of every `src_embed` row
    /// (`|src| × 3h`, see [`GruCell::project_input`]); built by `train`.
    enc_in: Vec<f32>,
    /// The decoder's input projection of every `tgt_embed` row
    /// (`|tgt| × 3h`); built by `train`.
    dec_in: Vec<f32>,
    /// The encoder's recurrent matrices, column-major; built by `train`.
    enc_u: RecurrentCols,
    /// The decoder's recurrent matrices, column-major; built by `train`.
    dec_u: RecurrentCols,
    /// `w_out` column-major (see [`matvec_cols`]); built by `train`.
    w_out_cols: Vec<f32>,
    adam_t: usize,
    /// Mean cross-entropy per epoch of the last training run.
    pub epoch_losses: Vec<f32>,
}

impl Seq2SeqModel {
    /// Create an untrained model.
    pub fn new(cfg: Seq2SeqConfig) -> Self {
        let mut rng = Rng::seed_from_u64(0);
        let (e, h) = (cfg.embed_dim, cfg.hidden_dim);
        Seq2SeqModel {
            src_vocab: Vocab::empty(),
            tgt_vocab: Vocab::empty(),
            src_embed: Param::xavier(4, e, &mut rng),
            tgt_embed: Param::xavier(4, e, &mut rng),
            encoder: GruCell::new(e, h, &mut rng),
            decoder: GruCell::new(e, h, &mut rng),
            w_out: Param::xavier(4, 2 * h, &mut rng),
            b_out: Param::zeros(4),
            enc_in: Vec::new(),
            dec_in: Vec::new(),
            enc_u: RecurrentCols::default(),
            dec_u: RecurrentCols::default(),
            w_out_cols: Vec::new(),
            adam_t: 0,
            epoch_losses: Vec::new(),
            cfg,
        }
    }

    /// Create with default hyperparameters.
    pub fn with_defaults() -> Self {
        Self::new(Seq2SeqConfig::default())
    }

    fn reset(&mut self, seed: u64) {
        let mut rng = Rng::seed_from_u64(seed);
        let (e, h) = (self.cfg.embed_dim, self.cfg.hidden_dim);
        self.src_embed = Param::xavier(self.src_vocab.len(), e, &mut rng);
        self.tgt_embed = Param::xavier(self.tgt_vocab.len(), e, &mut rng);
        self.encoder = GruCell::new(e, h, &mut rng);
        self.decoder = GruCell::new(e, h, &mut rng);
        self.w_out = Param::xavier(self.tgt_vocab.len(), 2 * h, &mut rng);
        self.b_out = Param::zeros(self.tgt_vocab.len());
        self.enc_in.clear();
        self.dec_in.clear();
        self.enc_u = RecurrentCols::default();
        self.dec_u = RecurrentCols::default();
        self.w_out_cols.clear();
        self.adam_t = 0;
        self.epoch_losses.clear();
    }

    fn embed(table: &Param, id: usize) -> &[f32] {
        &table.w[id * table.cols..(id + 1) * table.cols]
    }

    /// `cell`'s input projection of every row of `table`, row after row.
    fn input_table(cell: &GruCell, table: &Param) -> Vec<f32> {
        let w = 3 * cell.hidden_dim();
        let mut out = vec![0.0; table.rows * w];
        for id in 0..table.rows {
            cell.project_input(Self::embed(table, id), &mut out[id * w..(id + 1) * w]);
        }
        out
    }

    /// Run the encoder over source ids, returning hidden states + caches
    /// for backprop.
    fn encode(&self, src: &[usize]) -> (Vec<Vec<f32>>, Vec<GruCache>) {
        let h_dim = self.cfg.hidden_dim;
        let mut h = vec![0.0; h_dim];
        let mut states = Vec::with_capacity(src.len());
        let mut caches = Vec::with_capacity(src.len());
        for &id in src {
            let x = Self::embed(&self.src_embed, id);
            let (h_new, cache) = self.encoder.forward(x, &h);
            h = h_new;
            states.push(h.clone());
            caches.push(cache);
        }
        (states, caches)
    }

    /// One training example: forward + backward + Adam. Returns the mean
    /// token cross-entropy.
    fn train_example(&mut self, src: &[usize], tgt: &[usize]) -> f32 {
        let h_dim = self.cfg.hidden_dim;
        let e_dim = self.cfg.embed_dim;
        let vt = self.tgt_vocab.len();

        // ---- forward ----
        let (enc_states, enc_caches) = self.encode(src);
        let n = enc_states.len();
        let mut h = enc_states
            .last()
            .cloned()
            .unwrap_or_else(|| vec![0.0; h_dim]);

        struct Step {
            prev_id: usize,
            cache: GruCache,
            h: Vec<f32>,
            attn: Vec<f32>,
            context: Vec<f32>,
            probs: Vec<f32>,
            target: usize,
        }
        let mut steps: Vec<Step> = Vec::with_capacity(tgt.len());
        let mut loss = 0.0f32;
        let mut prev = SOS;
        for &target in tgt {
            let x = Self::embed(&self.tgt_embed, prev);
            let (h_new, cache) = self.decoder.forward(x, &h);
            h = h_new;
            // Dot-product attention over encoder states.
            let mut attn: Vec<f32> = (0..n).map(|i| dot(&h, &enc_states[i])).collect();
            if n > 0 {
                softmax_inplace(&mut attn);
            }
            let mut context = vec![0.0; h_dim];
            for i in 0..n {
                for j in 0..h_dim {
                    context[j] += attn[i] * enc_states[i][j];
                }
            }
            // Output logits over [h; context].
            let mut hc = Vec::with_capacity(2 * h_dim);
            hc.extend_from_slice(&h);
            hc.extend_from_slice(&context);
            let mut probs = vec![0.0; vt];
            matvec(&self.w_out.w, vt, 2 * h_dim, &hc, &mut probs);
            for (p, b) in probs.iter_mut().zip(&self.b_out.w) {
                *p += b;
            }
            softmax_inplace(&mut probs);
            loss -= probs[target].max(1e-12).ln();
            steps.push(Step {
                prev_id: prev,
                cache,
                h: h.clone(),
                attn,
                context,
                probs,
                target,
            });
            prev = target;
        }

        // ---- backward ----
        for p in self.params_mut() {
            p.zero_grad();
        }
        let mut d_enc_states = vec![vec![0.0f32; h_dim]; n];
        let mut dh_next = vec![0.0f32; h_dim];
        for step in steps.iter().rev() {
            // Cross-entropy + softmax.
            let mut dlogits = step.probs.clone();
            dlogits[step.target] -= 1.0;
            // Output layer.
            let mut hc = Vec::with_capacity(2 * h_dim);
            hc.extend_from_slice(&step.h);
            hc.extend_from_slice(&step.context);
            outer_acc(&mut self.w_out.g, vt, 2 * h_dim, &dlogits, &hc);
            for (g, d) in self.b_out.g.iter_mut().zip(&dlogits) {
                *g += d;
            }
            let mut dhc = vec![0.0; 2 * h_dim];
            crate::math::matvec_t_acc(&self.w_out.w, vt, 2 * h_dim, &dlogits, &mut dhc);
            let mut dh: Vec<f32> = dhc[..h_dim].to_vec();
            let dcontext = &dhc[h_dim..];
            for (a, b) in dh.iter_mut().zip(&dh_next) {
                *a += b;
            }
            // Attention backward.
            if n > 0 {
                let mut dattn = vec![0.0f32; n];
                for i in 0..n {
                    dattn[i] = dot(dcontext, &enc_states[i]);
                    for j in 0..h_dim {
                        d_enc_states[i][j] += step.attn[i] * dcontext[j];
                    }
                }
                // Softmax backward: ds_i = a_i (dattn_i − Σ_k a_k dattn_k).
                let mix: f32 = (0..n).map(|k| step.attn[k] * dattn[k]).sum();
                for i in 0..n {
                    let ds = step.attn[i] * (dattn[i] - mix);
                    for j in 0..h_dim {
                        dh[j] += ds * enc_states[i][j];
                        d_enc_states[i][j] += ds * step.h[j];
                    }
                }
            }
            // Decoder GRU backward.
            let mut dx = vec![0.0; e_dim];
            dh_next = self.decoder.backward(&step.cache, &dh, &mut dx);
            // Target-embedding gradient.
            let row = &mut self.tgt_embed.g[step.prev_id * e_dim..(step.prev_id + 1) * e_dim];
            for (g, d) in row.iter_mut().zip(&dx) {
                *g += d;
            }
        }
        // Encoder backward: the last state also received dh_next from the
        // decoder's initial hidden state.
        if n > 0 {
            for j in 0..h_dim {
                d_enc_states[n - 1][j] += dh_next[j];
            }
            let mut dh = vec![0.0f32; h_dim];
            for i in (0..n).rev() {
                let mut dh_total = d_enc_states[i].clone();
                for (a, b) in dh_total.iter_mut().zip(&dh) {
                    *a += b;
                }
                let mut dx = vec![0.0; e_dim];
                dh = self.encoder.backward(&enc_caches[i], &dh_total, &mut dx);
                let id = src[i];
                let row = &mut self.src_embed.g[id * e_dim..(id + 1) * e_dim];
                for (g, d) in row.iter_mut().zip(&dx) {
                    *g += d;
                }
            }
        }

        // ---- update ----
        self.adam_t += 1;
        let (lr, clip, t) = (self.cfg.learning_rate, self.cfg.grad_clip, self.adam_t);
        for p in self.params_mut() {
            p.clip_grad(clip);
            p.adam_step(lr, t);
        }
        loss / tgt.len().max(1) as f32
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = vec![
            &mut self.src_embed,
            &mut self.tgt_embed,
            &mut self.w_out,
            &mut self.b_out,
        ];
        out.extend(self.encoder.params_mut());
        out.extend(self.decoder.params_mut());
        out
    }

    /// Greedy decoding of a source id sequence into target ids: the
    /// float operations of `train_example`'s forward pass, in its order,
    /// with the GRU input projections read from `enc_in`/`dec_in` and
    /// every matrix product over a column-major copy. Every buffer is a
    /// local of this call, so concurrent calls share nothing mutable.
    fn decode_greedy(&self, src: &[usize]) -> Vec<usize> {
        let h_dim = self.cfg.hidden_dim;
        let w = 3 * h_dim;
        let n = src.len();
        let vt = self.tgt_vocab.len();
        let mut scratch = GruScratch::new(h_dim);

        // Encoder: `states` holds the hidden state after each source
        // token, row after row, and `states_cols` the same `n × h`
        // matrix column-major; `h` ends as the last state.
        let mut h = vec![0.0; h_dim];
        let mut states = vec![0.0; n * h_dim];
        let mut states_cols = vec![0.0; n * h_dim];
        for (i, &id) in src.iter().enumerate() {
            let xin = &self.enc_in[id * w..(id + 1) * w];
            self.encoder
                .step(xin, Recurrent::Cols(&self.enc_u), &mut h, &mut scratch);
            states[i * h_dim..(i + 1) * h_dim].copy_from_slice(&h);
            for (j, &v) in h.iter().enumerate() {
                states_cols[j * n + i] = v;
            }
        }

        let mut attn = vec![0.0; n];
        let mut hc = vec![0.0; 2 * h_dim];
        let mut probs = vec![0.0; vt];
        let mut prev = SOS;
        let mut out = Vec::new();
        for _ in 0..self.cfg.max_decode_len {
            let xin = &self.dec_in[prev * w..(prev + 1) * w];
            self.decoder
                .step(xin, Recurrent::Cols(&self.dec_u), &mut h, &mut scratch);
            // Dot-product attention over encoder states: `dot(h, state)`
            // per state, as products commute.
            matvec_cols(&states_cols, n, h_dim, &h, &mut attn);
            if n > 0 {
                softmax_inplace(&mut attn);
            }
            // Output logits over [h; context].
            let (h_part, context) = hc.split_at_mut(h_dim);
            h_part.copy_from_slice(&h);
            context.fill(0.0);
            for (i, &a) in attn.iter().enumerate() {
                let state = &states[i * h_dim..(i + 1) * h_dim];
                for (c, &s) in context.iter_mut().zip(state) {
                    *c += a * s;
                }
            }
            matvec_cols(&self.w_out_cols, vt, 2 * h_dim, &hc, &mut probs);
            for (l, b) in probs.iter_mut().zip(&self.b_out.w) {
                *l += b;
            }
            softmax_inplace(&mut probs);
            let next = probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(EOS);
            if next == EOS {
                break;
            }
            out.push(next);
            prev = next;
        }
        out
    }
}

impl TranslationModel for Seq2SeqModel {
    fn name(&self) -> &'static str {
        "seq2seq-attention"
    }

    fn train(&mut self, corpus: &TrainingCorpus, opts: &TrainOptions) {
        // Collect (src tokens, tgt tokens), optionally capped.
        let mut pairs: Vec<(Vec<String>, Vec<String>)> = corpus
            .text_pairs()
            .map(|(nl, sql)| {
                (
                    nl.split_whitespace().map(str::to_string).collect(),
                    sql_tokens(&sql),
                )
            })
            .collect();
        let mut rng = Rng::seed_from_u64(opts.seed);
        pairs.shuffle(&mut rng);
        if let Some(cap) = opts.max_pairs {
            pairs.truncate(cap);
        }

        // Vocabularies.
        self.src_vocab = Vocab::build(pairs.iter().map(|(s, _)| s.as_slice()));
        self.tgt_vocab = Vocab::build(pairs.iter().map(|(_, t)| t.as_slice()));
        self.reset(opts.seed);

        let encoded: Vec<(Vec<usize>, Vec<usize>)> = pairs
            .iter()
            .map(|(s, t)| (self.src_vocab.encode(s), self.tgt_vocab.encode(t)))
            .collect();

        let mut order: Vec<usize> = (0..encoded.len()).collect();
        for epoch in 0..opts.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0f32;
            for &i in &order {
                let (src, tgt) = &encoded[i];
                total += self.train_example(src, tgt);
            }
            let mean = total / encoded.len().max(1) as f32;
            self.epoch_losses.push(mean);
            if opts.verbose {
                eprintln!("[seq2seq] epoch {epoch}: loss {mean:.4}");
            }
        }
        // The weights are final: project every embedding row once and
        // copy the matrices decoding multiplies into column-major order.
        self.enc_in = Self::input_table(&self.encoder, &self.src_embed);
        self.dec_in = Self::input_table(&self.decoder, &self.tgt_embed);
        self.enc_u = self.encoder.recurrent_cols();
        self.dec_u = self.decoder.recurrent_cols();
        self.w_out_cols = transpose(&self.w_out.w, self.w_out.rows, self.w_out.cols);
    }

    fn translate(&self, nl_lemmas: &[String]) -> Option<Query> {
        if self.tgt_vocab.is_empty() {
            return None;
        }
        let src = self.src_vocab.encode(nl_lemmas);
        let ids = self.decode_greedy(&src);
        let tokens = self.tgt_vocab.decode(&ids);
        if tokens.is_empty() {
            return None;
        }
        parse_query(&tokens.join(" ")).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpal_core::{Provenance, TrainingPair};
    use dbpal_nlp::Lemmatizer;

    /// Lemmatized seed pairs, one per `(nl, sql)`.
    fn corpus_of(data: &[(&str, &str)]) -> TrainingCorpus {
        let lem = Lemmatizer::new();
        let mut pairs = Vec::new();
        for &(nl, sql) in data {
            let mut p = TrainingPair::new(nl, parse_query(sql).unwrap(), "t", Provenance::Seed);
            p.nl_lemmas = lem.lemmatize_sentence(nl);
            pairs.push(p);
        }
        TrainingCorpus::from_pairs(pairs)
    }

    fn tiny_corpus() -> TrainingCorpus {
        corpus_of(&[
            ("show the name of patients", "SELECT name FROM patients"),
            ("show the age of patients", "SELECT age FROM patients"),
            (
                "show the name of patients with age @AGE",
                "SELECT name FROM patients WHERE age = @AGE",
            ),
            (
                "show the age of patients with name @NAME",
                "SELECT age FROM patients WHERE name = @NAME",
            ),
            (
                "how many patients are there",
                "SELECT COUNT(*) FROM patients",
            ),
            (
                "what is the average age of patients",
                "SELECT AVG(age) FROM patients",
            ),
            (
                "what is the maximum age of patients",
                "SELECT MAX(age) FROM patients",
            ),
            ("show all patients", "SELECT * FROM patients"),
        ])
    }

    fn small_model() -> Seq2SeqModel {
        Seq2SeqModel::new(Seq2SeqConfig {
            embed_dim: 20,
            hidden_dim: 28,
            learning_rate: 5e-3,
            max_decode_len: 32,
            grad_clip: 5.0,
        })
    }

    #[test]
    fn loss_decreases() {
        let mut m = small_model();
        let opts = TrainOptions {
            epochs: 10,
            seed: 1,
            max_pairs: None,
            verbose: false,
        };
        m.train(&tiny_corpus(), &opts);
        let first = m.epoch_losses.first().copied().unwrap();
        let last = m.epoch_losses.last().copied().unwrap();
        assert!(
            last < first * 0.5,
            "loss did not drop: {first} -> {last} ({:?})",
            m.epoch_losses
        );
    }

    #[test]
    fn overfits_tiny_corpus() {
        let mut m = small_model();
        let opts = TrainOptions {
            epochs: 60,
            seed: 2,
            max_pairs: None,
            verbose: false,
        };
        let corpus = tiny_corpus();
        m.train(&corpus, &opts);
        let lem = Lemmatizer::new();
        let mut correct = 0;
        let mut total = 0;
        for p in corpus.pairs() {
            total += 1;
            let lemmas = lem.lemmatize_sentence(&p.nl);
            if let Some(q) = m.translate(&lemmas) {
                if dbpal_sql::exact_set_match(&q, &p.sql) {
                    correct += 1;
                }
            }
        }
        assert!(
            correct * 100 >= total * 75,
            "only {correct}/{total} memorized"
        );
    }

    #[test]
    fn untrained_model_returns_none() {
        let m = small_model();
        assert!(m.translate(&["show".into(), "name".into()]).is_none());
    }

    #[test]
    fn translate_handles_oov_tokens() {
        let mut m = small_model();
        m.train(&tiny_corpus(), &TrainOptions::fast());
        // Unknown words map to <unk>; translation must not panic.
        let _ = m.translate(&["frobnicate".into(), "the".into(), "zork".into()]);
    }

    #[test]
    fn sql_token_round_trip() {
        let text = "SELECT COUNT(*) FROM patients WHERE age = @AGE";
        let toks = sql_tokens(text);
        let rejoined = toks.join(" ");
        let q = parse_query(&rejoined).unwrap();
        assert_eq!(q, parse_query(text).unwrap());
    }

    /// The options every bit pin below trains with.
    fn pin_options() -> TrainOptions {
        TrainOptions {
            epochs: 10,
            seed: 1,
            max_pairs: None,
            verbose: false,
        }
    }

    /// Greedy target ids for each tiny-corpus lemma sequence, one
    /// all-OOV sequence and the empty sequence.
    fn decoded_ids(m: &Seq2SeqModel) -> Vec<Vec<usize>> {
        let mut inputs: Vec<Vec<String>> = tiny_corpus()
            .pairs()
            .iter()
            .map(|p| p.nl_lemmas.clone())
            .collect();
        inputs.push(vec!["frobnicate".into(), "the".into(), "zork".into()]);
        inputs.push(Vec::new());
        inputs
            .iter()
            .map(|lemmas| m.decode_greedy(&m.src_vocab.encode(lemmas)))
            .collect()
    }

    fn loss_bits(m: &Seq2SeqModel) -> Vec<u32> {
        m.epoch_losses.iter().map(|l| l.to_bits()).collect()
    }

    /// Pins the model's floats: any change to the order or the set of
    /// float operations in training or greedy decoding moves these bits.
    #[test]
    fn training_and_decoding_bits_are_pinned() {
        let mut m = small_model();
        m.train(&tiny_corpus(), &pin_options());
        assert_eq!(
            loss_bits(&m),
            [
                0x40388433, 0x401d24a5, 0x4005aeca, 0x3fd9886f, 0x3fb03d9c, 0x3f902a61, 0x3f68c71a,
                0x3f3c01f7, 0x3f164e38, 0x3eeb98f9
            ],
            "losses {:?}",
            m.epoch_losses
        );
        let ids = decoded_ids(&m);
        assert_eq!(
            dbpal_util::fnv1a(format!("{ids:?}").as_bytes()),
            0x4e70418b858f5dac,
            "ids {ids:?}"
        );
    }

    #[test]
    fn projection_tables_match_on_the_fly_projections() {
        let mut m = small_model();
        m.train(&tiny_corpus(), &TrainOptions::fast());
        let w = 3 * m.cfg.hidden_dim;
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for (cell, embed, table) in [
            (&m.encoder, &m.src_embed, &m.enc_in),
            (&m.decoder, &m.tgt_embed, &m.dec_in),
        ] {
            assert_eq!(table.len(), embed.rows * w);
            let mut row = vec![0.0; w];
            for id in 0..embed.rows {
                cell.project_input(Seq2SeqModel::embed(embed, id), &mut row);
                assert_eq!(bits(&table[id * w..(id + 1) * w]), bits(&row), "row {id}");
            }
        }

        // Each frozen copy holds `W[r][c]` at `c * rows + r`.
        let is_transpose = |cols: &[f32], w: &[f32], rows: usize, what: &str| {
            let n = w.len() / rows;
            assert_eq!(cols.len(), w.len(), "{what}");
            for (r, row) in w.chunks_exact(n).enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    assert_eq!(
                        cols[c * rows + r].to_bits(),
                        v.to_bits(),
                        "{what} [{r}][{c}]"
                    );
                }
            }
        };
        let h = m.cfg.hidden_dim;
        for (cell, u, what) in [
            (&mut m.encoder, &m.enc_u, "encoder"),
            (&mut m.decoder, &m.dec_u, "decoder"),
        ] {
            // `params_mut` lists `[Wz, Uz, bz, Wr, Ur, br, Wh, Uh, bh]`.
            let p = cell.params_mut();
            let uzr = [p[1].w.as_slice(), &p[4].w].concat();
            is_transpose(&u.uzr, &uzr, 2 * h, what);
            is_transpose(&u.uh, &p[7].w, h, what);
        }
        is_transpose(&m.w_out_cols, &m.w_out.w, m.w_out.rows, "w_out");

        m.reset(0);
        assert!(m.enc_in.is_empty() && m.dec_in.is_empty() && m.w_out_cols.is_empty());
        for u in [&m.enc_u, &m.dec_u] {
            assert!(u.uzr.is_empty() && u.uh.is_empty());
        }
    }

    #[test]
    fn retraining_resets_state() {
        // Another vocabulary: tables left from this run would be the
        // wrong size and hold the wrong weights.
        let other = corpus_of(&[
            ("list every doctor", "SELECT * FROM doctors"),
            ("count the doctors", "SELECT COUNT(*) FROM doctors"),
            (
                "which specialty has doctor @NAME",
                "SELECT specialty FROM doctors WHERE name = @NAME",
            ),
        ]);
        let mut fresh = small_model();
        fresh.train(&tiny_corpus(), &pin_options());
        let mut retrained = small_model();
        retrained.train(&other, &TrainOptions::fast());
        retrained.train(&tiny_corpus(), &pin_options());
        assert_eq!(loss_bits(&retrained), loss_bits(&fresh));
        assert_eq!(decoded_ids(&retrained), decoded_ids(&fresh));
    }
}
