//! A from-scratch GRU encoder–decoder with attention.
//!
//! This is the "generic sequence-to-sequence model" class the paper
//! builds on (§1, citing [51]): an embedding + GRU encoder, a GRU decoder
//! with Luong-style dot-product attention, a softmax output layer over
//! SQL tokens, trained with teacher forcing and Adam, decoded greedily.
//! Everything — forward, backward, optimizer — is implemented manually in
//! this crate; there is no external ML dependency.

use crate::gru::{GruCache, GruCell};
use crate::math::{dot, matvec, outer_acc, softmax_inplace, Param};
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
        self.adam_t = 0;
        self.epoch_losses.clear();
    }

    fn embed(table: &Param, id: usize, dim: usize) -> Vec<f32> {
        table.w[id * dim..(id + 1) * dim].to_vec()
    }

    /// Run the encoder over source ids, returning hidden states + caches.
    fn encode(&self, src: &[usize]) -> (Vec<Vec<f32>>, Vec<GruCache>) {
        let h_dim = self.cfg.hidden_dim;
        let mut h = vec![0.0; h_dim];
        let mut states = Vec::with_capacity(src.len());
        let mut caches = Vec::with_capacity(src.len());
        for &id in src {
            let x = Self::embed(&self.src_embed, id, self.cfg.embed_dim);
            let (h_new, cache) = self.encoder.forward(&x, &h);
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
            let x = Self::embed(&self.tgt_embed, prev, e_dim);
            let (h_new, cache) = self.decoder.forward(&x, &h);
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

    /// One decoder step: consume `prev`, update the hidden state, and
    /// return the post-softmax distribution over target tokens.
    fn decode_step(&self, prev: usize, h: &[f32], enc_states: &[Vec<f32>]) -> (Vec<f32>, Vec<f32>) {
        let h_dim = self.cfg.hidden_dim;
        let n = enc_states.len();
        let vt = self.tgt_vocab.len();
        let x = Self::embed(&self.tgt_embed, prev, self.cfg.embed_dim);
        let (h_new, _) = self.decoder.forward(&x, h);
        let mut attn: Vec<f32> = (0..n).map(|i| dot(&h_new, &enc_states[i])).collect();
        if n > 0 {
            softmax_inplace(&mut attn);
        }
        let mut context = vec![0.0; h_dim];
        for i in 0..n {
            for j in 0..h_dim {
                context[j] += attn[i] * enc_states[i][j];
            }
        }
        let mut hc = Vec::with_capacity(2 * h_dim);
        hc.extend_from_slice(&h_new);
        hc.extend_from_slice(&context);
        let mut probs = vec![0.0; vt];
        matvec(&self.w_out.w, vt, 2 * h_dim, &hc, &mut probs);
        for (l, b) in probs.iter_mut().zip(&self.b_out.w) {
            *l += b;
        }
        softmax_inplace(&mut probs);
        (h_new, probs)
    }

    /// Greedy decoding of a source id sequence into target tokens.
    fn decode_greedy(&self, src: &[usize]) -> Vec<usize> {
        let h_dim = self.cfg.hidden_dim;
        let (enc_states, _) = self.encode(src);
        let mut h = enc_states
            .last()
            .cloned()
            .unwrap_or_else(|| vec![0.0; h_dim]);
        let mut prev = SOS;
        let mut out = Vec::new();
        for _ in 0..self.cfg.max_decode_len {
            let (h_new, probs) = self.decode_step(prev, &h, &enc_states);
            h = h_new;
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

    fn tiny_corpus() -> TrainingCorpus {
        let lem = Lemmatizer::new();
        let data = [
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
        ];
        let mut pairs = Vec::new();
        for (nl, sql) in data {
            let mut p = TrainingPair::new(nl, parse_query(sql).unwrap(), "t", Provenance::Seed);
            p.nl_lemmas = lem.lemmatize_sentence(nl);
            pairs.push(p);
        }
        TrainingCorpus::from_pairs(pairs)
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

    #[test]
    fn retraining_resets_state() {
        let mut m = small_model();
        m.train(&tiny_corpus(), &TrainOptions::fast());
        let losses_a = m.epoch_losses.clone();
        m.train(&tiny_corpus(), &TrainOptions::fast());
        assert_eq!(losses_a.len(), m.epoch_losses.len());
    }
}
