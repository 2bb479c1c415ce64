module ekho/benchmark

go 1.22

require ekho v0.0.0

replace ekho => ../
