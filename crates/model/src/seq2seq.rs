//! A from-scratch GRU encoder–decoder with attention.
//!
//! This is the "generic sequence-to-sequence model" class the paper
//! builds on (§1, citing [51]): an embedding + GRU encoder, a GRU decoder
//! with Luong-style dot-product attention, a softmax output layer over
//! SQL tokens, trained with teacher forcing and Adam, decoded greedily.
//! Everything — forward, backward, optimizer — is implemented manually in
//! this crate; there is no external ML dependency.

use crate::gru::{GruCell, GruScratch, GruTape};
use crate::math::{
    matvec_cols, matvec_t_acc, outer_acc_steps, softmax_inplace, sums_of_squares, transpose_into,
    Param,
};
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
    /// `w_out` column-major (see [`matvec_cols`]), rewritten whenever
    /// `w_out` changes.
    w_out_cols: Vec<f32>,
    adam_t: usize,
    /// Mean cross-entropy per epoch of the last training run.
    pub epoch_losses: Vec<f32>,
}

/// The buffers of [`Seq2SeqModel::train_example`], reused from example
/// to example: what the forward pass keeps for backprop and what
/// backprop passes back. Row `t` of a per-step matrix belongs to target
/// step `t`; `n` is the source length.
struct TrainScratch {
    enc: GruTape,
    dec: GruTape,
    gru: GruScratch,
    /// The encoder states as one column-major `n × h` matrix.
    states_cols: Vec<f32>,
    /// Attention weights (`steps × n`).
    attn: Vec<f32>,
    /// The output layer's input `[h; context]` (`steps × 2h`).
    hc: Vec<f32>,
    /// Output probabilities (`steps × |tgt|`), then the logit gradients.
    probs: Vec<f32>,
    /// Gradients w.r.t. the encoder states (`n × h`).
    d_enc: Vec<f32>,
    /// Gradient w.r.t. `[h; context]` (`2h`).
    dhc: Vec<f32>,
    /// Gradient w.r.t. the current hidden state (`h`).
    dh: Vec<f32>,
    /// Gradient w.r.t. the attention weights (`n`).
    dattn: Vec<f32>,
    /// Gradient w.r.t. the current input embedding (`e`).
    dx: Vec<f32>,
}

impl TrainScratch {
    fn new(cfg: &Seq2SeqConfig) -> Self {
        let h = cfg.hidden_dim;
        TrainScratch {
            enc: GruTape::default(),
            dec: GruTape::default(),
            gru: GruScratch::new(h),
            states_cols: Vec::new(),
            attn: Vec::new(),
            hc: Vec::new(),
            probs: Vec::new(),
            d_enc: Vec::new(),
            dhc: vec![0.0; 2 * h],
            dh: vec![0.0; h],
            dattn: Vec::new(),
            dx: vec![0.0; cfg.embed_dim],
        }
    }
}

impl Seq2SeqModel {
    /// Create an untrained model.
    pub fn new(cfg: Seq2SeqConfig) -> Self {
        let mut rng = Rng::seed_from_u64(0);
        let (e, h) = (cfg.embed_dim, cfg.hidden_dim);
        let mut model = Seq2SeqModel {
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
            w_out_cols: Vec::new(),
            adam_t: 0,
            epoch_losses: Vec::new(),
            cfg,
        };
        model.refresh_w_out_cols();
        model
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
        self.refresh_w_out_cols();
        self.enc_in.clear();
        self.dec_in.clear();
        self.adam_t = 0;
        self.epoch_losses.clear();
    }

    fn refresh_w_out_cols(&mut self) {
        transpose_into(&[&self.w_out.w], self.w_out.cols, &mut self.w_out_cols);
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

    /// One training example: forward + backward + Adam. Returns the mean
    /// token cross-entropy. Every buffer lives in `ws`, which the caller
    /// reuses from example to example.
    fn train_example(&mut self, src: &[usize], tgt: &[usize], ws: &mut TrainScratch) -> f32 {
        let h_dim = self.cfg.hidden_dim;
        let e_dim = self.cfg.embed_dim;
        let vt = self.tgt_vocab.len();
        let n = src.len();

        // ---- forward ----
        // The encoder starts from the zero state.
        ws.dh.fill(0.0);
        ws.enc.start(&ws.dh);
        for &id in src {
            let x = Self::embed(&self.src_embed, id);
            self.encoder.forward(x, &mut ws.enc, &mut ws.gru);
        }
        // The encoder states, row after row and column-major.
        let states = ws.enc.states();
        transpose_into(&[states], h_dim, &mut ws.states_cols);
        ws.dec.start(ws.enc.last_state());

        ws.attn.clear();
        ws.hc.clear();
        ws.probs.clear();
        let mut loss = 0.0f32;
        let mut prev = SOS;
        for &target in tgt {
            let x = Self::embed(&self.tgt_embed, prev);
            self.decoder.forward(x, &mut ws.dec, &mut ws.gru);
            let h = ws.dec.last_state();
            // Dot-product attention over encoder states: `dot(h, state)`
            // per state, as products commute.
            let a0 = ws.attn.len();
            ws.attn.resize(a0 + n, 0.0);
            let attn = &mut ws.attn[a0..];
            matvec_cols(&ws.states_cols, n, h_dim, h, attn);
            if n > 0 {
                softmax_inplace(attn);
            }
            // Output logits over [h; context].
            let c0 = ws.hc.len();
            ws.hc.extend_from_slice(h);
            ws.hc.resize(c0 + 2 * h_dim, 0.0);
            let context = &mut ws.hc[c0 + h_dim..];
            for (&a, state) in attn.iter().zip(states.chunks_exact(h_dim)) {
                for (c, &s) in context.iter_mut().zip(state) {
                    *c += a * s;
                }
            }
            let p0 = ws.probs.len();
            ws.probs.resize(p0 + vt, 0.0);
            let probs = &mut ws.probs[p0..];
            matvec_cols(&self.w_out_cols, vt, 2 * h_dim, &ws.hc[c0..], probs);
            for (p, b) in probs.iter_mut().zip(&self.b_out.w) {
                *p += b;
            }
            softmax_inplace(probs);
            loss -= probs[target].max(1e-12).ln();
            prev = target;
        }

        // ---- backward ----
        for p in self.params_mut() {
            p.zero_grad();
        }
        ws.d_enc.clear();
        ws.d_enc.resize(n * h_dim, 0.0);
        ws.dattn.resize(n, 0.0);
        // `dh` carries the gradient w.r.t. the decoder state from step
        // to step, last step first.
        ws.dh.fill(0.0);
        for (t, &target) in tgt.iter().enumerate().rev() {
            // Cross-entropy + softmax: the probabilities become the
            // logit gradients in place.
            let dlogits = &mut ws.probs[t * vt..(t + 1) * vt];
            dlogits[target] -= 1.0;
            // Output layer; `w_out`'s gradient waits until every step's
            // `dlogits` is known.
            for (g, d) in self.b_out.g.iter_mut().zip(dlogits.iter()) {
                *g += d;
            }
            ws.dhc.fill(0.0);
            matvec_t_acc(&self.w_out.w, vt, 2 * h_dim, dlogits, &mut ws.dhc);
            let (dh_out, dcontext) = ws.dhc.split_at(h_dim);
            for (d, &o) in ws.dh.iter_mut().zip(dh_out) {
                *d += o;
            }
            // Attention backward.
            if n > 0 {
                let attn = &ws.attn[t * n..(t + 1) * n];
                let h = &ws.hc[t * 2 * h_dim..t * 2 * h_dim + h_dim];
                // `dot(dcontext, state)` per state.
                matvec_cols(&ws.states_cols, n, h_dim, dcontext, &mut ws.dattn);
                // Softmax backward: ds_i = a_i (dattn_i − Σ_k a_k dattn_k).
                let mix: f32 = attn.iter().zip(&ws.dattn).map(|(a, d)| a * d).sum();
                let rows = states
                    .chunks_exact(h_dim)
                    .zip(ws.d_enc.chunks_exact_mut(h_dim));
                for ((&a, &da), (state, d_state)) in attn.iter().zip(&ws.dattn).zip(rows) {
                    let ds = a * (da - mix);
                    for (dh, &s) in ws.dh.iter_mut().zip(state) {
                        *dh += ds * s;
                    }
                    for ((d, &dc), &hj) in d_state.iter_mut().zip(dcontext).zip(h) {
                        *d += a * dc;
                        *d += ds * hj;
                    }
                }
            }
            // Decoder GRU backward.
            ws.dx.fill(0.0);
            self.decoder
                .backward(&mut ws.dec, t, &mut ws.dh, &mut ws.dx, &mut ws.gru);
            // Target-embedding gradient.
            let prev_id = if t == 0 { SOS } else { tgt[t - 1] };
            let row = &mut self.tgt_embed.g[prev_id * e_dim..(prev_id + 1) * e_dim];
            for (g, d) in row.iter_mut().zip(&ws.dx) {
                *g += d;
            }
        }
        self.decoder.accumulate_grads(&ws.dec);
        outer_acc_steps(&mut self.w_out.g, vt, 2 * h_dim, &ws.probs, &ws.hc);
        // Encoder backward: the last state also received `dh` from the
        // decoder's initial hidden state.
        if n > 0 {
            for (d, &g) in ws.d_enc[(n - 1) * h_dim..].iter_mut().zip(&ws.dh) {
                *d += g;
            }
            ws.dh.fill(0.0);
            for i in (0..n).rev() {
                let d_state = &ws.d_enc[i * h_dim..(i + 1) * h_dim];
                for (d, &s) in ws.dh.iter_mut().zip(d_state) {
                    *d += s;
                }
                ws.dx.fill(0.0);
                self.encoder
                    .backward(&mut ws.enc, i, &mut ws.dh, &mut ws.dx, &mut ws.gru);
                let id = src[i];
                let row = &mut self.src_embed.g[id * e_dim..(id + 1) * e_dim];
                for (g, d) in row.iter_mut().zip(&ws.dx) {
                    *g += d;
                }
            }
            self.encoder.accumulate_grads(&ws.enc);
        }

        // ---- update ----
        self.adam_t += 1;
        let (lr, clip, t) = (self.cfg.learning_rate, self.cfg.grad_clip, self.adam_t);
        let mut params = self.params_mut();
        let grads: Vec<&[f32]> = params.iter().map(|p| p.g.as_slice()).collect();
        let sums = sums_of_squares(&grads);
        for (p, sum_sq) in params.iter_mut().zip(sums) {
            p.clip_grad(sum_sq, clip);
            p.adam_step(lr, t);
        }
        self.encoder.refresh_cols();
        self.decoder.refresh_cols();
        self.refresh_w_out_cols();
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
            self.encoder.step(xin, &mut h, &mut scratch);
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
            self.decoder.step(xin, &mut h, &mut scratch);
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
        // Shuffle, cap, then collect (src tokens, tgt tokens) of the
        // pairs kept. A shuffle's permutation depends only on the
        // length, so this keeps what shuffling the built pairs would.
        let mut rng = Rng::seed_from_u64(opts.seed);
        let mut kept: Vec<usize> = (0..corpus.len()).collect();
        kept.shuffle(&mut rng);
        if let Some(cap) = opts.max_pairs {
            kept.truncate(cap);
        }
        let pairs: Vec<(Vec<String>, Vec<String>)> = kept
            .iter()
            .map(|&i| {
                let pair = &corpus.pairs()[i];
                (
                    pair.nl_key()
                        .split_whitespace()
                        .map(str::to_string)
                        .collect(),
                    sql_tokens(&pair.sql_text()),
                )
            })
            .collect();

        // Vocabularies.
        self.src_vocab = Vocab::build(pairs.iter().map(|(s, _)| s.as_slice()));
        self.tgt_vocab = Vocab::build(pairs.iter().map(|(_, t)| t.as_slice()));
        self.reset(opts.seed);

        let encoded: Vec<(Vec<usize>, Vec<usize>)> = pairs
            .iter()
            .map(|(s, t)| (self.src_vocab.encode(s), self.tgt_vocab.encode(t)))
            .collect();

        let mut ws = TrainScratch::new(&self.cfg);
        let mut order: Vec<usize> = (0..encoded.len()).collect();
        for _ in 0..opts.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0f32;
            for &i in &order {
                let (src, tgt) = &encoded[i];
                total += self.train_example(src, tgt, &mut ws);
            }
            let mean = total / encoded.len().max(1) as f32;
            self.epoch_losses.push(mean);
        }
        // The weights are final: project every embedding row once.
        self.enc_in = Self::input_table(&self.encoder, &self.src_embed);
        self.dec_in = Self::input_table(&self.decoder, &self.tgt_embed);
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

    /// FNV-1a over the bits of every trained weight: unlike a mean loss
    /// or a greedy decode, it moves with any one-ulp change.
    fn weight_digest(m: &mut Seq2SeqModel) -> u64 {
        let mut h = dbpal_util::Fnv1a::new();
        for p in m.params_mut() {
            for w in &p.w {
                h.update(&w.to_bits().to_le_bytes());
            }
        }
        h.finish()
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
        let weights = weight_digest(&mut m);
        assert_eq!(
            weights, 0x0048_e5e5_0fed_4df4,
            "weights moved: {weights:#018x}"
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

        // Each column-major copy holds `W[r][c]` at `c * rows + r`.
        let w_out_is_transposed = |m: &Seq2SeqModel| {
            let (rows, cols) = (m.w_out.rows, m.w_out.cols);
            assert_eq!(m.w_out_cols.len(), rows * cols);
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(
                        m.w_out_cols[c * rows + r].to_bits(),
                        m.w_out.w[r * cols + c].to_bits(),
                        "w_out [{r}][{c}]"
                    );
                }
            }
        };
        w_out_is_transposed(&m);
        m.encoder.assert_cols_match_weights();
        m.decoder.assert_cols_match_weights();

        // A reset drops the tables and copies the fresh weights.
        m.reset(0);
        assert!(m.enc_in.is_empty() && m.dec_in.is_empty());
        w_out_is_transposed(&m);
        m.encoder.assert_cols_match_weights();
        m.decoder.assert_cols_match_weights();
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
