"""Local k-nearest-neighbor search on graphs via bounded charge diffusion."""
