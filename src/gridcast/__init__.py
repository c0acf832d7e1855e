"""gridcast: from-scratch hybrid CNN-RNN one-step-ahead power grid state
forecaster with manual backpropagation, Adam training, and a full
synthesize/train/evaluate/forecast pipeline."""
