module mudbscan/benchmark

go 1.22

require mudbscan v0.0.0

replace mudbscan => ../
