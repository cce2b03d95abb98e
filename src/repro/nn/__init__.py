"""A small numpy-based neural-network substrate standing in for PyTorch.

The paper trains candidate operators inside full backbone models with PyTorch
on GPUs; this package provides the equivalent capability at laptop scale: a
reverse-mode autograd engine over numpy arrays, a module system, common
layers, tiny configurations of the paper's six backbone models, optimizers,
synthetic datasets and a trainer.

Nothing is re-exported, so importing a light submodule loads no numpy.
"""
